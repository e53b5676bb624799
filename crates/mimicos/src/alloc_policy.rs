//! Physical memory allocation policies evaluated by the paper (Fig. 16):
//! plain 4 KiB buddy allocation, the Linux-like THP policy, conservative and
//! aggressive reservation-based THP, eager paging (RMM) and the Utopia
//! restrictive-segment allocator.

use crate::utopia::UtopiaConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vm_types::PageSize;

/// The physical memory allocation policy the kernel applies on page faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AllocationPolicy {
    /// `BD`: the buddy allocator only ever provides 4 KiB pages.
    BuddyFourK,
    /// Linux-like transparent huge pages: try a 2 MiB allocation on the
    /// first fault of an eligible region, fall back to 4 KiB, and let
    /// khugepaged collapse later (the paper's baseline MimicOS policy).
    #[default]
    LinuxThp,
    /// `CR-THP`: reservation-based THP that promotes a reserved 2 MiB region
    /// once more than 50 % of its 4 KiB pages are populated.
    ConservativeReservationThp,
    /// `AR-THP`: reservation-based THP that promotes once more than 10 % of
    /// the region is populated.
    AggressiveReservationThp,
    /// RMM-style eager paging: allocate the entire VMA as the largest
    /// available contiguous physical ranges at `mmap` time.
    EagerPaging,
    /// `UT`: Utopia restrictive segments with the given RestSeg geometry.
    Utopia(UtopiaConfig),
}

impl AllocationPolicy {
    /// The Utopia configuration the paper finds best for LLM serving
    /// (32 MB RestSeg, 16-way, 4 KiB pages).
    pub fn utopia_32mb_16way() -> Self {
        AllocationPolicy::Utopia(UtopiaConfig::new(32 * 1024 * 1024, 16, PageSize::Size4K))
    }

    /// `true` if the policy may create 2 MiB mappings at fault time.
    pub fn allocates_huge_pages(&self) -> bool {
        matches!(
            self,
            AllocationPolicy::LinuxThp
                | AllocationPolicy::ConservativeReservationThp
                | AllocationPolicy::AggressiveReservationThp
        )
    }

    /// The promotion threshold of reservation-based policies.
    pub fn reservation_threshold(&self) -> Option<f64> {
        match self {
            AllocationPolicy::ConservativeReservationThp => Some(0.5),
            AllocationPolicy::AggressiveReservationThp => Some(0.1),
            _ => None,
        }
    }

    /// Short label used in result tables (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            AllocationPolicy::BuddyFourK => "BD".to_string(),
            AllocationPolicy::LinuxThp => "THP".to_string(),
            AllocationPolicy::ConservativeReservationThp => "CR-THP".to_string(),
            AllocationPolicy::AggressiveReservationThp => "AR-THP".to_string(),
            AllocationPolicy::EagerPaging => "Eager".to_string(),
            AllocationPolicy::Utopia(cfg) => {
                format!("UT-{}MB/{}-way", cfg.size_bytes / (1024 * 1024), cfg.ways)
            }
        }
    }
}

impl fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(AllocationPolicy::BuddyFourK.label(), "BD");
        assert_eq!(
            AllocationPolicy::ConservativeReservationThp.label(),
            "CR-THP"
        );
        assert_eq!(AllocationPolicy::AggressiveReservationThp.label(), "AR-THP");
        assert_eq!(
            AllocationPolicy::utopia_32mb_16way().label(),
            "UT-32MB/16-way"
        );
    }

    #[test]
    fn huge_page_capability() {
        assert!(!AllocationPolicy::BuddyFourK.allocates_huge_pages());
        assert!(AllocationPolicy::LinuxThp.allocates_huge_pages());
        assert!(AllocationPolicy::AggressiveReservationThp.allocates_huge_pages());
    }

    #[test]
    fn reservation_thresholds() {
        assert_eq!(
            AllocationPolicy::ConservativeReservationThp.reservation_threshold(),
            Some(0.5)
        );
        assert_eq!(
            AllocationPolicy::AggressiveReservationThp.reservation_threshold(),
            Some(0.1)
        );
        assert_eq!(AllocationPolicy::LinuxThp.reservation_threshold(), None);
    }

    #[test]
    fn default_is_linux_thp() {
        assert_eq!(AllocationPolicy::default(), AllocationPolicy::LinuxThp);
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(AllocationPolicy::EagerPaging.to_string(), "Eager");
    }
}
