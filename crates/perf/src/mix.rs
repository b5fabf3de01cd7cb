//! The `checked_mix` case generator.
//!
//! It mirrors the draw of `mac_sim::fuzz` (address patterns and
//! load/store/atomic/fence mixes) with longer programs, 64–1024 memory
//! operations per thread, so each case is a measurable simulation rather
//! than a shrinking target.
//!
//! The draw is *stratified*: a case's shape — system family, thread
//! count, program lengths, each thread's address pattern,
//! outstanding-request limit and cube count — is a fixed design over the
//! case index, and the seed draws everything else (topology, addresses,
//! operation kinds, compute gaps). Every seed therefore runs the same amount of
//! work over the same mix of system variants, which keeps host
//! throughput and memory comparable across seeds.

use rand::{rngs::SmallRng, Rng, SeedableRng};

use mac_sim::fuzz::FuzzCase;
use mac_types::{AdaptConfig, MacPlacement, MemOpKind, NetTopology, PhysAddr, SystemConfig};
use soc_sim::ThreadOp;

/// Cycle cap per case; generous, since a case that cannot drain is a
/// failure and not a measurement.
const MIX_MAX_CYCLES: u64 = 50_000_000;

/// The system variants one pass cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One HMC node.
    Numa1,
    /// Two NUMA nodes exchanging remote requests.
    Numa2,
    /// A 2/4/8-cube network, coalescing at the host (`SystemSim`).
    NetHost,
    /// A 2/4/8-cube network, one MAC per cube (`NetSystem`).
    NetPerCube,
    /// The HBM backend.
    Hbm,
    /// The DDR backend.
    Ddr,
    /// One HMC node under the tuned adaptive controller.
    Adaptive,
}

/// Every family, in the order cases cycle through them.
pub const FAMILIES: [Family; 7] = [
    Family::Numa1,
    Family::Numa2,
    Family::NetHost,
    Family::NetPerCube,
    Family::Hbm,
    Family::Ddr,
    Family::Adaptive,
];

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn gen_config(rng: &mut SmallRng, i: usize) -> SystemConfig {
    let family = FAMILIES[i % FAMILIES.len()];
    let threads = [1usize, 2, 4, 8][(i / FAMILIES.len()) % 4];
    let mut sys = SystemConfig::paper(threads);
    sys.soc.max_outstanding_per_thread = [1usize, 4, 16][(i / 2) % 3];
    match family {
        Family::Numa1 => {}
        Family::Numa2 => sys.soc.nodes = 2,
        Family::NetHost | Family::NetPerCube => {
            let cubes = [2usize, 4, 8][(i / FAMILIES.len()) % 3];
            let topology = if cubes == 4 {
                pick(
                    rng,
                    &[
                        NetTopology::DaisyChain,
                        NetTopology::Ring,
                        NetTopology::Mesh2x2,
                    ],
                )
            } else {
                pick(rng, &[NetTopology::DaisyChain, NetTopology::Ring])
            };
            let placement = if family == Family::NetHost {
                MacPlacement::HostOnly
            } else {
                MacPlacement::PerCube
            };
            sys = sys.with_net(cubes, topology, placement);
        }
        Family::Hbm => sys = sys.with_hbm(),
        Family::Ddr => sys = sys.with_ddr(),
        Family::Adaptive => sys.adapt = AdaptConfig::tuned(),
    }
    sys
}

/// Memory operations in thread `t` of case `i`: spread over 64–1024 by
/// a fixed design, the same for every seed.
fn program_len(i: usize, t: usize) -> usize {
    64 + (i * 131 + t * 71) % 961
}

/// One `len`-operation program in one of the fuzzer's four address
/// patterns, with its operation mix (5% fences, 5% atomics, 20% stores,
/// 70% loads, with short compute bursts).
fn gen_thread_ops(rng: &mut SmallRng, len: usize, pattern: usize) -> Vec<ThreadOp> {
    let row_base: u64 = u64::from(rng.gen_range(0u32..256)) * 256;
    let stride = pick(rng, &[16u64, 64, 256, 4096]);
    let mut cursor: u64 = u64::from(rng.gen_range(0u32..4096)) * 16;
    let mut ops = Vec::with_capacity(len + len / 4);
    for _ in 0..len {
        if rng.gen_bool(0.2) {
            ops.push(ThreadOp::Compute(rng.gen_range(1u64..8)));
        }
        let kind = match rng.gen_range(0u32..100) {
            0..=4 => MemOpKind::Fence,
            5..=9 => MemOpKind::Atomic,
            10..=29 => MemOpKind::Store,
            _ => MemOpKind::Load,
        };
        let addr = match (kind, pattern) {
            (MemOpKind::Fence, _) => 0,
            // Same-row hammer.
            (_, 0) => row_base + u64::from(rng.gen_range(0u32..16)) * 16,
            // Strided walk.
            (_, 1) => {
                cursor += stride;
                cursor
            }
            // Uniform random over 4 MiB, FLIT-aligned.
            (_, 2) => u64::from(rng.gen_range(0u32..(1 << 18))) * 16,
            // Bank hammer: consecutive rows aliasing onto few banks.
            _ => {
                cursor += 32 * 256;
                cursor
            }
        };
        ops.push(ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind,
        });
    }
    ops
}

/// Draw `count` cases from `seed`. Case `i` has its own RNG stream, so a
/// case depends only on `(seed, i)`.
pub fn generate(seed: u64, count: usize) -> Vec<FuzzCase> {
    (0..count)
        .map(|i| {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            let sys = gen_config(&mut rng, i);
            let (nodes, threads) = (sys.soc.nodes, sys.soc.threads);
            let ops = (0..nodes)
                .map(|n| {
                    (0..threads)
                        .map(|t| {
                            let k = n * threads + t;
                            gen_thread_ops(&mut rng, program_len(i, k), (i + k) % 4)
                        })
                        .collect()
                })
                .collect();
            FuzzCase {
                sys,
                ops,
                max_cycles: MIX_MAX_CYCLES,
            }
        })
        .collect()
}
