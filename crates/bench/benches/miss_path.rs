//! Per-layer criterion benches for the structures one TLB miss touches: the
//! TLB probe + fill, the page-walk-cache probe + fill, the radix walk and
//! the cache set fill. Each drives one structure alone, from outside,
//! through the calls `Mmu::translate` and `CacheHierarchy::access` make, so
//! a layout change to one of them has a meter that needs no full-system
//! run. One iteration is [`OPS`] operations on addresses drawn beforehand.

use cache_sim::{Cache, CacheConfig, ReplacementPolicy};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mimic_os::Mapping;
use mmu_sim::pt::RadixPageTable;
use mmu_sim::{PageTable, PageWalkCaches, Tlb, TlbConfig};
use vm_types::{Asid, DetRng, PageSize, PhysAddr, Requestor, VirtAddr, CACHE_LINE_BYTES};

/// Operations per timed iteration.
const OPS: usize = 100_000;
/// Base of every benched virtual footprint.
const VA_BASE: u64 = 0x4000_0000;

/// `OPS` page numbers drawn uniformly from `0..pages`.
fn random_pages(pages: u64, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    (0..OPS).map(|_| rng.gen_range(0, pages)).collect()
}

fn mapping(page: u64, size: PageSize) -> Mapping {
    Mapping {
        vaddr: VirtAddr::new(VA_BASE + page * size.bytes()),
        paddr: PhysAddr::new(0x10_0000_0000 + page * size.bytes()),
        page_size: size,
    }
}

/// The TLB half of a miss-heavy translation: probe, and on a miss fill, as
/// `TlbHierarchy::lookup` + `fill` do. The footprint is eight times the
/// TLB's reach, so seven probes in eight miss and evict.
fn tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_probe_fill");
    let sizes = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
    for (name, entries, ways) in [("l1_4way", 64, 4), ("l2_16way", 2048, 16)] {
        let pages = random_pages(entries as u64 * 8, 1);
        group.bench_function(BenchmarkId::new("4k", name), |b| {
            let mut tlb = Tlb::new(TlbConfig::new(name, entries, ways, 1, &sizes));
            let asid = Asid::new(1);
            b.iter(|| {
                let mut hits = 0u64;
                for &page in &pages {
                    let m = mapping(page, PageSize::Size4K);
                    match tlb.lookup(asid, m.vaddr) {
                        Some(_) => hits += 1,
                        None => drop(tlb.fill(asid, m)),
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

/// The PWC half of a radix walk: `levels_skipped` before it, `fill` after.
/// 256 distinct 2 MiB regions thrash the 32-entry PD-level cache while the
/// upper levels stay warm — the `gups`-style steady state.
fn pwc(c: &mut Criterion) {
    let mut group = c.benchmark_group("pwc_probe_fill");
    let regions = random_pages(256, 2);
    group.bench_function(BenchmarkId::new("paper_baseline", "256x2M"), |b| {
        let mut pwc = PageWalkCaches::paper_baseline();
        b.iter(|| {
            let mut skipped = 0usize;
            for &region in &regions {
                let va = mapping(region, PageSize::Size2M).vaddr;
                skipped += pwc.levels_skipped(va);
                pwc.fill(va);
            }
            skipped
        })
    });
    group.finish();
}

/// Radix walks over a fully mapped footprint, from the root (`skip 0`) and
/// behind a PD-level PWC hit (`skip 3`, a 4 KiB walk's common case).
fn radix_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix_walk");
    for (name, size, pages) in [
        ("4k_64MiB", PageSize::Size4K, 16 * 1024),
        ("2m_4GiB", PageSize::Size2M, 2 * 1024),
    ] {
        let mut table = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        for page in 0..pages {
            table.insert(mapping(page, size));
        }
        let walks = random_pages(pages, 3);
        for skip in [0, 3] {
            group.bench_function(BenchmarkId::new(name, format!("skip{skip}")), |b| {
                b.iter(|| {
                    let mut accesses = 0usize;
                    for &page in &walks {
                        let walk = table.walk(mapping(page, size).vaddr, skip);
                        accesses += black_box(&walk).accesses.len();
                    }
                    accesses
                })
            });
        }
    }
    group.finish();
}

/// The miss half of a cache access — `lookup` misses, then `fill` evicts —
/// on 64-set caches of 2, 8 and 16 ways under both replacement policies,
/// over a footprint eight times the capacity.
fn cache_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_set_fill");
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
        for ways in [2u32, 8, 16] {
            let config = CacheConfig {
                capacity_bytes: 64 * u64::from(ways) * CACHE_LINE_BYTES,
                ways,
                replacement: policy,
                ..CacheConfig::tiny("bench")
            };
            let lines = random_pages(64 * u64::from(ways) * 8, 4);
            group.bench_function(BenchmarkId::new(format!("{policy:?}"), ways), |b| {
                let mut cache = Cache::new(config.clone());
                b.iter(|| {
                    let mut writebacks = 0u64;
                    for &line in &lines {
                        let pa = PhysAddr::new(line * CACHE_LINE_BYTES);
                        let write = line & 1 == 1;
                        if !cache.lookup(pa, write, Requestor::Application).is_hit() {
                            writebacks += u64::from(cache.fill(pa, write, false).is_some());
                        }
                    }
                    writebacks
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, tlb, pwc, radix_walk, cache_fill);
criterion_main!(benches);
