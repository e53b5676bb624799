//! Strongly-typed virtual and physical addresses, page sizes and page numbers.
//!
//! The whole framework manipulates three kinds of quantities that are all
//! "just a `u64`" at the machine level but mean very different things:
//! virtual addresses produced by the application, physical addresses produced
//! by address translation, and page numbers (addresses shifted right by the
//! page-size order). Newtypes keep them apart statically
//! (see the `C-NEWTYPE` API guideline).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of a cache line in bytes. All cache and DRAM models operate at this
/// granularity.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Page sizes supported by the x86-64 memory-management model that MimicOS
/// imitates.
///
/// # Examples
///
/// ```
/// use vm_types::PageSize;
/// assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
/// assert_eq!(PageSize::Size2M.order_4k(), 9);
/// assert!(PageSize::Size1G > PageSize::Size4K);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum PageSize {
    /// 4 KiB base page.
    #[default]
    Size4K,
    /// 2 MiB huge page (one PMD entry).
    Size2M,
    /// 1 GiB huge page (one PUD entry).
    Size1G,
}

impl PageSize {
    /// All page sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// Size of the page in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4 * 1024,
            PageSize::Size2M => 2 * 1024 * 1024,
            PageSize::Size1G => 1024 * 1024 * 1024,
        }
    }

    /// log2 of the page size in bytes (the shift used to obtain page numbers).
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// Buddy-allocator order of this page size relative to 4 KiB base pages
    /// (`0` for 4 KiB, `9` for 2 MiB, `18` for 1 GiB).
    #[inline]
    pub const fn order_4k(self) -> u32 {
        self.shift() - PageSize::Size4K.shift()
    }

    /// Number of 4 KiB base pages covered by one page of this size.
    #[inline]
    pub const fn base_pages(self) -> u64 {
        1 << self.order_4k()
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
            PageSize::Size1G => write!(f, "1GB"),
        }
    }
}

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        // No `Hash`: a raw address must not key a hash map (see
        // `FxHashMap`'s docs); key by page number or a shifted `u64`.
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize,
            Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates an address from its raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The zero address.
            pub const ZERO: Self = Self(0);

            /// Raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Offset of the address within a page of the given size.
            #[inline]
            pub const fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Base address of the page (of the given size) containing this
            /// address.
            #[inline]
            pub const fn page_base(self, size: PageSize) -> Self {
                Self(self.0 & !(size.bytes() - 1))
            }

            /// Page number of the page (of the given size) containing this
            /// address.
            #[inline]
            pub const fn page_number(self, size: PageSize) -> PageNumber {
                PageNumber::new(self.0 >> size.shift(), size)
            }

            /// Base address of the cache line containing this address.
            #[inline]
            pub const fn cache_line(self) -> Self {
                Self(self.0 & !(CACHE_LINE_BYTES - 1))
            }

            /// Adds a byte offset, returning a new address.
            ///
            /// # Panics
            ///
            /// Panics on overflow of the 64-bit address space in debug builds.
            #[inline]
            pub const fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }

            /// Adds a byte offset with wrapping semantics.
            #[inline]
            pub const fn wrapping_add(self, bytes: u64) -> Self {
                Self(self.0.wrapping_add(bytes))
            }

            /// Byte distance from `other` to `self`.
            ///
            /// # Panics
            ///
            /// Panics (in debug builds) if `other > self`.
            #[inline]
            pub const fn offset_from(self, other: Self) -> u64 {
                self.0 - other.0
            }

            /// Returns `true` if the address is aligned to the given page size.
            #[inline]
            pub const fn is_aligned(self, size: PageSize) -> bool {
                self.page_offset(size) == 0
            }

            /// Rounds the address down to the given page size.
            #[inline]
            pub const fn align_down(self, size: PageSize) -> Self {
                self.page_base(size)
            }

            /// Rounds the address up to the given page size.
            #[inline]
            pub const fn align_up(self, size: PageSize) -> Self {
                let mask = size.bytes() - 1;
                Self((self.0 + mask) & !mask)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }
    };
}

addr_newtype!(
    /// A virtual address as seen by the simulated application.
    ///
    /// # Examples
    ///
    /// ```
    /// use vm_types::{VirtAddr, PageSize};
    /// let va = VirtAddr::new(0x2000_0123);
    /// assert_eq!(va.page_base(PageSize::Size4K), VirtAddr::new(0x2000_0000));
    /// assert_eq!(va.page_offset(PageSize::Size4K), 0x123);
    /// ```
    VirtAddr
);

addr_newtype!(
    /// A physical address produced by address translation.
    ///
    /// # Examples
    ///
    /// ```
    /// use vm_types::{PhysAddr, PageSize};
    /// let pa = PhysAddr::new(0x1_0000_0000);
    /// assert!(pa.is_aligned(PageSize::Size1G));
    /// ```
    PhysAddr
);

/// A page number: an address shifted right by the page-size order, tagged
/// with the page size it refers to.
///
/// # Examples
///
/// ```
/// use vm_types::{VirtAddr, PageSize};
/// let vpn = VirtAddr::new(0x40_2000).page_number(PageSize::Size4K);
/// assert_eq!(vpn.number(), 0x402);
/// assert_eq!(vpn.floor(PageSize::Size4K).raw(), 0x40_2000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageNumber {
    number: u64,
    size: PageSize,
}

impl PageNumber {
    /// Creates a page number from its raw value and page size.
    #[inline]
    pub const fn new(number: u64, size: PageSize) -> Self {
        Self { number, size }
    }

    /// Raw page-number value.
    #[inline]
    pub const fn number(self) -> u64 {
        self.number
    }

    /// The page size this number refers to.
    #[inline]
    pub const fn size(self) -> PageSize {
        self.size
    }

    /// Converts the page number back to the base virtual address of the page.
    #[inline]
    pub const fn floor(self, size: PageSize) -> VirtAddr {
        VirtAddr::new(self.number << size.shift())
    }

    /// Converts the page number back to the base physical address of the page.
    #[inline]
    pub const fn floor_phys(self, size: PageSize) -> PhysAddr {
        PhysAddr::new(self.number << size.shift())
    }
}

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn {:#x} ({})", self.number, self.size)
    }
}

/// Splits an x86-64 virtual address into its four radix page-table indices
/// (PGD, PUD, PMD, PTE), 9 bits each.
///
/// # Examples
///
/// ```
/// use vm_types::{VirtAddr, addr::radix_indices};
/// let idx = radix_indices(VirtAddr::new(0x0000_7f12_3456_7000));
/// assert_eq!(idx.len(), 4);
/// assert!(idx.iter().all(|&i| i < 512));
/// ```
pub fn radix_indices(va: VirtAddr) -> [usize; 4] {
    let raw = va.raw();
    [
        ((raw >> 39) & 0x1ff) as usize,
        ((raw >> 30) & 0x1ff) as usize,
        ((raw >> 21) & 0x1ff) as usize,
        ((raw >> 12) & 0x1ff) as usize,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_bytes_and_shift_agree() {
        for size in PageSize::ALL {
            assert_eq!(1u64 << size.shift(), size.bytes());
        }
    }

    #[test]
    fn page_size_ordering() {
        assert!(PageSize::Size4K < PageSize::Size2M);
        assert!(PageSize::Size2M < PageSize::Size1G);
    }

    #[test]
    fn base_pages_counts() {
        assert_eq!(PageSize::Size4K.base_pages(), 1);
        assert_eq!(PageSize::Size2M.base_pages(), 512);
        assert_eq!(PageSize::Size1G.base_pages(), 512 * 512);
    }

    #[test]
    fn virt_addr_page_math() {
        let va = VirtAddr::new(0x7fff_1234_5678);
        assert_eq!(va.page_offset(PageSize::Size4K), 0x678);
        assert_eq!(va.page_base(PageSize::Size4K).raw(), 0x7fff_1234_5000);
        assert_eq!(va.page_offset(PageSize::Size2M), 0x134_5678 & 0x1f_ffff);
        assert_eq!(
            va.page_number(PageSize::Size4K).floor(PageSize::Size4K),
            va.page_base(PageSize::Size4K)
        );
    }

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr::new(0x1001);
        assert!(!va.is_aligned(PageSize::Size4K));
        assert_eq!(va.align_down(PageSize::Size4K).raw(), 0x1000);
        assert_eq!(va.align_up(PageSize::Size4K).raw(), 0x2000);
        let aligned = VirtAddr::new(0x4000);
        assert_eq!(aligned.align_up(PageSize::Size4K), aligned);
    }

    #[test]
    fn cache_line_base() {
        let pa = PhysAddr::new(0x1234_5679);
        assert_eq!(pa.cache_line().raw(), 0x1234_5640);
        assert_eq!(pa.cache_line().raw() % CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn offset_from_and_add_are_inverse() {
        let base = VirtAddr::new(0x10_0000);
        let derived = base.add(0x42);
        assert_eq!(derived.offset_from(base), 0x42);
    }

    #[test]
    fn radix_indices_within_bounds_and_reconstructible() {
        let va = VirtAddr::new(0x0000_7f12_3456_7abc);
        let [pgd, pud, pmd, pte] = radix_indices(va);
        let rebuilt = ((pgd as u64) << 39)
            | ((pud as u64) << 30)
            | ((pmd as u64) << 21)
            | ((pte as u64) << 12)
            | (va.raw() & 0xfff);
        assert_eq!(rebuilt, va.raw() & 0x0000_ffff_ffff_ffff);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", PhysAddr::new(0xbeef)), "beef");
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
    }

    #[test]
    fn page_number_display_mentions_size() {
        let pn = PageNumber::new(7, PageSize::Size1G);
        assert!(pn.to_string().contains("1GB"));
    }
}
