//! The workspace-wide error type.

use crate::addr::{PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors produced by the Virtuoso simulation framework.
///
/// Each variant carries enough context to diagnose the failing operation
/// without a debugger. All variants are lowercase, concise messages per the
/// `C-GOOD-ERR` guideline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VmError {
    /// Physical memory is exhausted and reclaim could not free enough pages.
    OutOfMemory {
        /// Bytes that were requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A virtual address was accessed that belongs to no virtual memory area.
    SegmentationFault {
        /// The faulting virtual address.
        vaddr: VirtAddr,
    },
    /// An address translation was attempted for an unmapped page and demand
    /// paging is disabled for the context.
    NotMapped {
        /// The unmapped virtual address.
        vaddr: VirtAddr,
    },
    /// A physical frame was freed twice or freed without being allocated.
    InvalidFree {
        /// The offending physical address.
        paddr: PhysAddr,
    },
    /// A virtual-memory-area operation had inconsistent arguments
    /// (e.g. overlapping map, zero-length region).
    InvalidVma {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A configuration value is out of range or internally inconsistent.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The swap device is full.
    SwapFull,
    /// A hash-based structure (elastic cuckoo table, Utopia RestSeg) could
    /// not place an entry after exhausting its collision-resolution budget.
    HashPlacementFailed {
        /// Name of the structure that failed.
        structure: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "out of physical memory: requested {requested} bytes, {free} free"
                )
            }
            VmError::SegmentationFault { vaddr } => {
                write!(f, "segmentation fault at {vaddr}")
            }
            VmError::NotMapped { vaddr } => write!(f, "address {vaddr} is not mapped"),
            VmError::InvalidFree { paddr } => write!(f, "invalid free of frame {paddr}"),
            VmError::InvalidVma { reason } => write!(f, "invalid virtual memory area: {reason}"),
            VmError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            VmError::SwapFull => write!(f, "swap space exhausted"),
            VmError::HashPlacementFailed { structure } => {
                write!(f, "hash placement failed in {structure}")
            }
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<VmError> = vec![
            VmError::OutOfMemory {
                requested: 4096,
                free: 0,
            },
            VmError::SegmentationFault {
                vaddr: VirtAddr::new(0xdead),
            },
            VmError::NotMapped {
                vaddr: VirtAddr::new(0x1000),
            },
            VmError::InvalidFree {
                paddr: PhysAddr::new(0x2000),
            },
            VmError::InvalidVma {
                reason: "zero length".into(),
            },
            VmError::InvalidConfig {
                reason: "tlb ways is zero".into(),
            },
            VmError::SwapFull,
            VmError::HashPlacementFailed {
                structure: "elastic cuckoo",
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "message: {msg}");
            assert!(!msg.ends_with('.'), "message: {msg}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<VmError>();
    }

    #[test]
    fn segfault_mentions_address() {
        let e = VmError::SegmentationFault {
            vaddr: VirtAddr::new(0xabc),
        };
        assert!(e.to_string().contains("0xabc"));
    }
}
