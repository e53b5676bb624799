//! Use Case 1 (paper §7.4) in miniature: compare the four page-table designs
//! (Radix, ECH, HDC, HT) on a TLB-stressing workload and report page-walk
//! latency, minor-fault latency and DRAM row-buffer conflicts.
//!
//! Run with `cargo run --example page_table_study`.

use virtuoso_suite::prelude::*;

fn main() {
    let spec = WorkloadSpec::simple(
        "pt-study",
        WorkloadClass::LongRunning,
        128 * 1024 * 1024,
        AccessPattern::PointerChasing,
        60_000,
    );

    println!(
        "{:<8} {:>14} {:>16} {:>18} {:>16}",
        "design", "avg PTW (cyc)", "total PTW (cyc)", "mean fault (ns)", "DRAM conflicts"
    );
    for kind in PageTableKind::ALL {
        let config = SystemConfig::small_test().with_design(Design::PageTable(kind));
        let mut system = System::new(config);
        system
            .mmap_anonymous(VirtAddr::new(0x10_0000_0000), 128 * 1024 * 1024)
            .expect("mapping the heap");
        let report = system.run(&mut spec.build(7), None);
        println!(
            "{:<8} {:>14.1} {:>16.0} {:>18.1} {:>16}",
            kind.label(),
            report.avg_ptw_latency_cycles,
            report.total_ptw_latency_cycles,
            report.fault_latency_ns.mean(),
            report.dram_row_conflicts,
        );
    }
}
