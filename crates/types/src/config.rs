//! Configuration structs mirroring Table 1 of the paper plus the knobs the
//! evaluation sweeps (ARQ entries, thread count, FLIT-table policy).
//!
//! Defaults reproduce the paper's simulated system exactly:
//! RV64 cores x8 @3.3 GHz, 1 MB SPM/core (1 ns), 8 GB HMC with 4 links and
//! 256 B rows (~93 ns average access), ARQ of 32 x 64 B entries.
//!
//! A parameter the paper fixes and no experiment varies (the clock, the
//! SPM, the ARQ entry size, the builder's stage latencies, the DRAM
//! timings and geometry, the link rate, the retry penalty and seed, and
//! the switch pass-through) is an associated constant of the struct it
//! belongs to, not a field: `SocConfig::FREQ_GHZ`, `HmcConfig::T_RCD`.

use std::ops::RangeInclusive;

use crate::request::Target;

/// Core-side (node) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Number of in-order cores per node (Table 1: 8).
    pub cores: usize,
    /// Hardware threads per node. The paper evaluates 2/4/8; threads are
    /// spread round-robin over cores.
    pub threads: usize,
    /// Maximum outstanding memory requests per thread before it stalls.
    ///
    /// The default (`usize::MAX`, fully open-loop) reproduces the paper's
    /// *evaluation methodology*: its traces were captured from functional
    /// Spike runs and replayed into the timed MAC simulator, so requests
    /// arrive at the demand rate of Figure 9 (up to 9.32 per cycle) and
    /// the system self-throttles only through queue backpressure. Set to
    /// 1 for the strict "stall-until-complete" core model of §3 (the
    /// `ablate_closed_loop` bench measures the difference).
    pub max_outstanding_per_thread: usize,
    /// Number of NUMA nodes in the system (Figure 4). The paper's
    /// evaluation uses a single node.
    pub nodes: usize,
    /// One-way interconnect latency between nodes, in cycles, for remote
    /// accesses.
    pub interconnect_latency: u64,
    /// Cycles a core pays to switch between hardware threads. 0 models
    /// the paper's spatial multithreading (threads on distinct cores or
    /// free round-robin); small non-zero values model the "temporal
    /// multithreading with quick context switching" extension §3
    /// sketches for SPM-based architectures.
    pub context_switch_penalty: u64,
}

impl SocConfig {
    /// Core clock in GHz (Table 1: 3.3). Every latency in the
    /// configuration is in cycles of this one clock.
    pub const FREQ_GHZ: f64 = 3.3;
    /// Scratchpad size per core in bytes (Table 1: 1 MB).
    pub const SPM_BYTES: u64 = 1 << 20;
    /// Average SPM access latency in CPU cycles (Table 1: 1 ns ~ 3 cycles
    /// at 3.3 GHz; we round to 3).
    pub const SPM_LATENCY: u64 = 3;
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            cores: 8,
            threads: 8,
            max_outstanding_per_thread: usize::MAX,
            nodes: 1,
            interconnect_latency: 100,
            context_switch_penalty: 0,
        }
    }
}

/// Policy for the second builder stage's size decision (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitTablePolicy {
    /// Paper's FLIT table: the packet spans from the first to the last
    /// active 64 B chunk, rounded up to 64/128/256 B (0110 -> 128 B).
    SpanRounded,
    /// Ablation: always emit a full 256 B row request (the "just enlarge
    /// the cache line" strawman of §2.3.2).
    Always256,
    /// Ablation: emit one 64 B request per active chunk (MSHR-style fixed
    /// 64 B granularity of §2.3.2).
    PerChunk64,
}

/// MAC configuration (§4).
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// ARQ entries (Table 1: 32; Figure 11 sweeps 8..64).
    pub arq_entries: usize,
    /// Cycles between ARQ pops toward the request builder (§4.1: "every
    /// two clock cycles, a request is popped").
    pub pop_interval: u64,
    /// FLIT-table policy (default: the paper's span-rounded table).
    pub flit_table: FlitTablePolicy,
    /// Enable the `B`-bit bypass path for single-request rows (§4.1.2).
    pub bypass_enabled: bool,
    /// Enable the latency-hiding fill mechanism: when free entries exceed
    /// half the ARQ, that many raw requests skip the comparators (§4.1).
    pub latency_hiding: bool,
    /// Capacity of the local/remote/global FIFO queues in the request
    /// router (§3.1).
    pub router_queue_depth: usize,
    /// Raw requests the ARQ can accept per cycle. The paper's §4.4
    /// states one; note that together with the 0.5/cycle pop rate this
    /// caps steady-state coalescing efficiency at 50 % (emitted ≥ raw/2
    /// when every accept slot is used), so the >60 % per-benchmark
    /// efficiencies in Figure 10 imply a wider accept port. Values > 1
    /// model a multi-ported CAM (the `ablate_accept_width` bench).
    pub accepts_per_cycle: usize,
}

impl MacConfig {
    /// Bytes per ARQ entry (Table 1: 64). 10 B hold the extended address
    /// and FLIT map; the rest buffers 4.5 B targets (§5.3.3).
    pub const ARQ_ENTRY_BYTES: u64 = 64;
    /// Latency of builder stage 1 (OR-reduce), cycles (§4.2: 1).
    pub const STAGE1_LATENCY: u64 = 1;
    /// Latency of builder stage 2 (table lookup + build), cycles (§4.2.1: 2).
    pub const STAGE2_LATENCY: u64 = 2;

    /// Maximum distinct targets one entry can hold:
    /// `(entry_bytes − 10) / 4.5` = 12 for 64 B entries (§5.3.3).
    pub fn max_targets_per_entry() -> usize {
        ((Self::ARQ_ENTRY_BYTES as f64 - 10.0) / Target::BYTES).floor() as usize
    }

    /// ARQ storage in bytes (Figure 16's x-axis -> y-axis mapping).
    pub fn arq_bytes(&self) -> u64 {
        self.arq_entries as u64 * Self::ARQ_ENTRY_BYTES
    }
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            arq_entries: 32,
            pop_interval: 2,
            flit_table: FlitTablePolicy::SpanRounded,
            bypass_enabled: true,
            latency_hiding: true,
            router_queue_depth: 64,
            accepts_per_cycle: 1,
        }
    }
}

/// HMC device configuration (Table 1 plus HMC 2.1 spec structure).
#[derive(Debug, Clone, PartialEq)]
pub struct HmcConfig {
    /// Serial links to the host (Table 1: 4).
    pub links: usize,
    /// Device capacity in bytes (Table 1: 8 GB).
    pub capacity: u64,
    /// Vaults (HMC 2.1: 32).
    pub vaults: usize,
    /// Banks per vault (8 GB cube: 16, for 512 total banks; §2.2.1).
    pub banks_per_vault: usize,
    /// Vault controller command queue depth.
    pub vault_queue_depth: usize,
    /// Link packet error rate (probability a packet fails CRC and must
    /// retransmit; HMC's link retry protocol). 0.0 disables injection.
    pub link_error_rate: f64,
}

/// Calibrated so an uncontended 16 B read round-trip is ~93 ns (~307
/// cycles at 3.3 GHz): link ser/deser + logic + DRAM. The DRAM row is
/// [`ROW_BYTES`](crate::ROW_BYTES) (Table 1: 256 B).
impl HmcConfig {
    /// Per-link bandwidth in GB/s each direction (4 x 30 GB/s = 120 GB/s
    /// < the 320 GB/s peak of an 8-link cube).
    pub const LINK_GBPS: f64 = 30.0;
    /// Closed-page activate latency (tRCD) in core cycles (~18.2 ns).
    pub const T_RCD: u64 = 60;
    /// Column access latency (tCL) in core cycles (~18.2 ns).
    pub const T_CL: u64 = 60;
    /// Precharge latency (tRP) in core cycles (~13.9 ns) — paid on every
    /// access under the closed-page policy (§2.2.1).
    pub const T_RP: u64 = 46;
    /// Cycles to stream one 32 B column burst out of the sense amps.
    pub const T_BURST_PER_32B: u64 = 4;
    /// Fixed logic-layer traversal (SerDes + crossbar + vault controller)
    /// one-way, in core cycles (~27 ns).
    pub const LOGIC_LATENCY: u64 = 90;
    /// Extra cycles per retransmission (timeout detection + replay from
    /// the link retry buffer).
    pub const RETRY_PENALTY: u64 = 100;
    /// Seed for the error-injection RNG (deterministic runs).
    pub const ERROR_SEED: u64 = 0x5EED;

    /// Core cycles to serialize one 16 B FLIT on a single link.
    /// At 30 GB/s and 3.3 GHz: 16 B / (30 B/ns) = 0.533 ns = 1.76 cycles;
    /// we model it with fixed-point x16 to keep cycle math integral.
    pub fn flit_cycles_x16() -> u64 {
        let ns_per_flit = 16.0 / Self::LINK_GBPS; // GB/s == B/ns
        (ns_per_flit * SocConfig::FREQ_GHZ * 16.0).round() as u64
    }

    /// DRAM service time for one access of `payload_bytes`, excluding
    /// queueing: activate + column + burst + precharge.
    pub fn dram_service_cycles(payload_bytes: u64) -> u64 {
        let bursts = payload_bytes.div_ceil(32).max(1);
        Self::T_RCD + Self::T_CL + bursts * Self::T_BURST_PER_32B + Self::T_RP
    }

    /// Total banks in the cube.
    pub fn total_banks(&self) -> usize {
        self.vaults * self.banks_per_vault
    }
}

impl Default for HmcConfig {
    fn default() -> Self {
        HmcConfig {
            links: 4,
            capacity: 8 << 30,
            vaults: 32,
            banks_per_vault: 16,
            vault_queue_depth: 32,
            link_error_rate: 0.0,
        }
    }
}

/// JEDEC DDR4 channel configuration (§2.2's conventional baseline):
/// 64 B burst granularity, 8 KB open-page rows, 16 banks, one shared
/// data bus.
#[derive(Debug, Clone, PartialEq)]
pub struct DdrConfig {
    /// Controller transaction queue depth.
    pub queue_depth: usize,
}

/// DDR4-2400-ish timings at 3.3 GHz core cycles.
impl DdrConfig {
    /// Banks in the rank.
    pub const BANKS: usize = 16;
    /// Row (page) size in bytes (DDR4: 8 KB typical).
    pub const ROW_BYTES: u64 = 8 << 10;
    /// Activate latency in core cycles.
    pub const T_RCD: u64 = 46;
    /// Column access latency in core cycles.
    pub const T_CL: u64 = 46;
    /// Precharge latency in core cycles.
    pub const T_RP: u64 = 46;
    /// Cycles per 64 B burst on the shared data bus (64 B at ~19.2 GB/s).
    pub const T_BURST: u64 = 11;
    /// Controller/PHY latency each way, in core cycles.
    pub const INTERFACE_LATENCY: u64 = 50;
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig { queue_depth: 32 }
    }
}

/// Memory back end selection (§4.3: MAC applies to both HMC and HBM).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemBackend {
    /// Hybrid Memory Cube (the paper's evaluation device).
    #[default]
    Hmc,
    /// High Bandwidth Memory (the §4.3 portability target).
    Hbm,
    /// Conventional JEDEC DDR4 (the §2.2 baseline).
    Ddr,
}

/// HBM device configuration (§4.3): DDR-style burst protocol, 32 B
/// minimum access, 1 KB rows, open-page row buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Per-channel command queue depth.
    pub channel_queue_depth: usize,
}

impl HbmConfig {
    /// Independent channels (HBM2: 8 per stack).
    pub const CHANNELS: usize = 8;
    /// Banks per channel.
    pub const BANKS_PER_CHANNEL: usize = 16;
    /// DRAM row (page) size in bytes (HBM: 1 KB).
    pub const ROW_BYTES: u64 = 1024;
    /// Activate latency in core cycles.
    pub const T_RCD: u64 = 46;
    /// Column access latency in core cycles.
    pub const T_CL: u64 = 46;
    /// Precharge latency in core cycles.
    pub const T_RP: u64 = 46;
    /// Cycles per 32 B burst on a channel's data bus.
    pub const T_BURST_PER_32B: u64 = 2;
    /// PHY/interface latency each way, in core cycles.
    pub const INTERFACE_LATENCY: u64 = 40;
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            channel_queue_depth: 32,
        }
    }
}

/// Shape of the inter-cube network (HMC chaining, §7 of the HMC 2.1
/// spec; studied by Hadidi et al. for NoC-connected stacks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NetTopology {
    /// Cubes in a line; the host attaches to cube 0. Worst-case hop
    /// count grows linearly with the chain length.
    #[default]
    DaisyChain,
    /// Cubes in a cycle; the host attaches to cube 0 and packets take
    /// the shorter arc (ties go clockwise, deterministically).
    Ring,
    /// Four cubes in a 2×2 grid, host at cube 0, dimension-order (X
    /// then Y) routing. Requires `cubes == 4`.
    Mesh2x2,
}

impl NetTopology {
    /// Check that `cubes` cubes can be wired in this shape: 1, 2, 4 or 8
    /// cubes (the address map carves a power-of-two cube field), and
    /// exactly 4 for `Mesh2x2`. Every parser of an untrusted network
    /// config calls this, because the network constructors panic on a
    /// shape they cannot wire.
    pub fn check_cubes(self, cubes: u64) -> Result<(), String> {
        if self == NetTopology::Mesh2x2 && cubes != 4 {
            return Err("mesh topology requires cubes=4".into());
        }
        if !matches!(cubes, 1 | 2 | 4 | 8) {
            return Err("cubes must be 1, 2, 4, or 8".into());
        }
        Ok(())
    }
}

/// One row of the [`bounds`] table: a config value outside input can
/// set, under the name reproducers, served jobs and command lines give
/// it, and the values it may take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// The value's name in reproducers, MACS-1 submits and errors.
    pub name: &'static str,
    /// The values allowed.
    pub range: RangeInclusive<u64>,
}

impl Bound {
    const fn new(name: &'static str, range: RangeInclusive<u64>) -> Bound {
        Bound { name, range }
    }

    /// `value` if it is allowed, else an error naming the field, the
    /// value and the range: `arq=0 outside 1..=4096`.
    pub fn check(&self, value: u64) -> Result<u64, String> {
        if self.range.contains(&value) {
            Ok(value)
        } else {
            Err(self.reject(value))
        }
    }

    /// Parse a command-line token as this value. A token that is not a
    /// number is rejected in the same shape as one out of range.
    pub fn parse(&self, token: &str) -> Result<u64, String> {
        token
            .parse()
            .map_err(|_| self.reject(token))
            .and_then(|v| self.check(v))
    }

    fn reject(&self, value: impl std::fmt::Display) -> String {
        format!("{}={value} outside {:?}", self.name, self.range)
    }
}

/// The range of every config value outside input can set, in one table.
/// [`SystemConfig::validate`] and `mac_sim`'s `ExperimentConfig::validate`
/// check a whole configuration against it, and every front door (fuzz
/// reproducers, mac-serve submissions, the command lines) rejects what
/// fails: nothing clamps. Counts size tables a run allocates; pop
/// intervals, accept widths and adaptive votes feed cycle and counter
/// arithmetic that overflows far above these bounds. Queue depths, the
/// outstanding-request cap and the adaptive interval only need to be
/// non-zero. The adaptive rows apply only to an enabled controller.
pub mod bounds {
    use super::Bound;

    /// Hardware threads per node (`soc.threads`) and workload threads.
    pub const THREADS: Bound = Bound::new("threads", 1..=64);
    /// NUMA nodes (`soc.nodes`).
    pub const NODES: Bound = Bound::new("nodes", 1..=64);
    /// Workload scale, of a workload run, a manifest entry or a whole
    /// `mac-bench` run. Several generators take its log2, and a trace
    /// grows with it.
    pub const SCALE: Bound = Bound::new("scale", 1..=64);
    /// Cycle cap of a run. The top is `ExperimentConfig`'s default cap,
    /// so no input can hold a run longer than an unconfigured experiment.
    pub const MAX_CYCLES: Bound = Bound::new("maxcycles", 1..=200_000_000);
    /// ARQ entries (`mac.arq_entries`).
    pub const ARQ: Bound = Bound::new("arq", 1..=4096);
    /// MAC pop interval in cycles (`mac.pop_interval`).
    pub const POP: Bound = Bound::new("pop", 1..=65_536);
    /// Raw requests the ARQ accepts per cycle (`mac.accepts_per_cycle`).
    pub const ACCEPTS: Bound = Bound::new("accepts", 1..=64);
    /// Request-router queue depth (`mac.router_queue_depth`).
    pub const ROUTER: Bound = Bound::new("router", 1..=u64::MAX);
    /// Vault command-queue depth (`hmc.vault_queue_depth`).
    pub const VAULTQ: Bound = Bound::new("vaultq", 1..=u64::MAX);
    /// Outstanding requests per thread (`soc.max_outstanding_per_thread`).
    pub const MAXOUT: Bound = Bound::new("maxout", 1..=u64::MAX);
    /// Adaptive decision interval in cycles (`adapt.interval`).
    pub const INTERVAL: Bound = Bound::new("interval", 1..=u64::MAX);
    /// Adaptive pop-interval floor (`adapt.min_pop_interval`).
    pub const MIN_POP: Bound = Bound::new("minpop", POP.range);
    /// Adaptive pop-interval ceiling (`adapt.max_pop_interval`).
    pub const MAX_POP: Bound = Bound::new("maxpop", POP.range);
    /// Adaptive accept-width floor (`adapt.min_accepts`).
    pub const MIN_ACCEPTS: Bound = Bound::new("minacc", ACCEPTS.range);
    /// Adaptive accept-width ceiling (`adapt.max_accepts`).
    pub const MAX_ACCEPTS: Bound = Bound::new("maxacc", ACCEPTS.range);
    /// Adaptive evidence votes (`adapt.evidence_threshold`).
    pub const EVIDENCE: Bound = Bound::new("evidence", 0..=65_536);
    /// Adaptive hold intervals (`adapt.hold_intervals`).
    pub const HOLD: Bound = Bound::new("hold", EVIDENCE.range);
}

/// The `key=value` table behind both doors that take a configuration
/// as text, fuzz reproducers and MACS-1 submits: each [`Key`](keys::Key)
/// names one value, parses its text into a config and prints it back,
/// so both doors spell every value alike and a config printed and
/// parsed back equals itself. [`SYSTEM`](keys::SYSTEM) holds the
/// system's keys; `mac_sim`'s `ExperimentConfig::KEYS` adds the run's.
/// The table only parses: ranges are the [`bounds`] table's, checked by
/// `validate`.
///
/// Setting a key of the network (`cubes topology placement mapping`) or
/// of the adaptive controller (`interval` … `hold`) switches that part
/// on. Its switch, `net` or `adapt`, applies after its keys whatever
/// order the pairs take, and `false` restores the part's defaults.
pub mod keys {
    use std::fmt;

    use super::bounds::*;
    use super::{AdaptConfig, Bound, NetConfig, SystemConfig};
    use super::{CubeMapping::*, FlitTablePolicy::*, MacPlacement::*, NetTopology::*};

    /// How a key's value is written, with the accessors that read it
    /// from a config `C` and write it back.
    pub enum Form<C: 'static> {
        /// A decimal number, under its bounds row if it has one.
        Num(Option<&'static Bound>, fn(&C) -> u64, fn(&mut C, u64)),
        /// `true` or `false`.
        Flag(fn(&C) -> bool, fn(&mut C, bool)),
        /// One of the words, read and written as its index.
        Word(&'static [&'static str], fn(&C) -> usize, fn(&mut C, usize)),
    }

    /// One key a door may set.
    pub struct Key<C: 'static> {
        /// The key's name.
        pub name: &'static str,
        /// How its value is written.
        pub form: Form<C>,
    }

    /// A key's value in a config; it displays as the doors write it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Value {
        /// A number.
        Num(u64),
        /// A flag.
        Flag(bool),
        /// A word.
        Word(&'static str),
    }

    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Value::Num(n) => write!(f, "{n}"),
                Value::Flag(b) => write!(f, "{b}"),
                Value::Word(w) => f.write_str(w),
            }
        }
    }

    impl<C> Key<C> {
        /// A numeric key named after its [`bounds`](super::bounds) row.
        pub const fn num(bound: &'static Bound, get: fn(&C) -> u64, set: fn(&mut C, u64)) -> Self {
            let form = Form::Num(Some(bound), get, set);
            Key {
                name: bound.name,
                form,
            }
        }

        /// A `true`/`false` key.
        pub const fn flag(name: &'static str, get: fn(&C) -> bool, set: fn(&mut C, bool)) -> Self {
            Key {
                name,
                form: Form::Flag(get, set),
            }
        }

        /// This key's value in `cfg`.
        pub fn value(&self, cfg: &C) -> Value {
            match self.form {
                Form::Num(_, get, _) => Value::Num(get(cfg)),
                Form::Flag(get, _) => Value::Flag(get(cfg)),
                Form::Word(words, get, _) => Value::Word(words[get(cfg)]),
            }
        }

        /// Parse `text` into this key of `cfg`. Text not in the key's
        /// form is an error naming the key and the text; a number its
        /// field cannot hold is outside its range.
        pub fn parse(&self, cfg: &mut C, text: &str) -> Result<(), String> {
            let expected = |what: &str| format!("{}={text}: expected {what}", self.name);
            match self.form {
                Form::Num(bound, get, set) => {
                    let v = text.parse().map_err(|_| expected("a number"))?;
                    set(cfg, v);
                    // A narrower field reads back another number.
                    if get(cfg) != v {
                        return Err(
                            bound.map_or_else(|| expected("a smaller number"), |b| b.reject(v))
                        );
                    }
                }
                Form::Flag(_, set) => match text {
                    "true" => set(cfg, true),
                    "false" => set(cfg, false),
                    _ => return Err(expected("true|false")),
                },
                Form::Word(words, _, set) => {
                    let i = words.iter().position(|w| *w == text);
                    set(cfg, i.ok_or_else(|| expected(&words.join("|")))?);
                }
            }
            Ok(())
        }
    }

    /// Split `key=value` tokens into pairs. A token without `=`, or a
    /// key given twice ([`unique`]), is an error naming the token.
    pub fn pairs<'a>(
        tokens: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<(&'a str, &'a str)>, String> {
        let split = |tok: &'a str| {
            tok.split_once('=')
                .ok_or_else(|| format!("{tok}: expected key=value"))
        };
        let pairs = tokens
            .into_iter()
            .map(split)
            .collect::<Result<Vec<_>, _>>()?;
        unique(&pairs)?;
        Ok(pairs)
    }

    /// An error naming the first pair whose key an earlier pair gives.
    pub fn unique(pairs: &[(&str, &str)]) -> Result<(), String> {
        match (1..pairs.len()).find(|&i| pairs[..i].iter().any(|p| p.0 == pairs[i].0)) {
            Some(i) => Err(format!("{}={}: key given twice", pairs[i].0, pairs[i].1)),
            None => Ok(()),
        }
    }

    /// Parse the pairs that name a key of `table` into `cfg`, in table
    /// order, and return the pairs that name none.
    pub fn apply<'a, C>(
        table: &[Key<C>],
        cfg: &mut C,
        pairs: &[(&'a str, &'a str)],
    ) -> Result<Vec<(&'a str, &'a str)>, String> {
        for key in table {
            if let Some((_, text)) = pairs.iter().find(|(k, _)| *k == key.name) {
                key.parse(cfg, text)?;
            }
        }
        let known = |k: &&str| table.iter().any(|key| key.name == *k);
        Ok(pairs.iter().filter(|(k, _)| !known(k)).copied().collect())
    }

    /// The network, switched on.
    fn net(c: &mut SystemConfig) -> &mut NetConfig {
        c.net.enabled = true;
        &mut c.net
    }

    /// The adaptive controller, switched on.
    fn adapt(c: &mut SystemConfig) -> &mut AdaptConfig {
        c.adapt.enabled = true;
        &mut c.adapt
    }

    /// The system's keys, in the order they print and apply. Each word
    /// list follows its enum's declaration order.
    #[rustfmt::skip]
    pub const SYSTEM: [Key<SystemConfig>; 25] = [
        Key::num(&THREADS, |c| c.soc.threads as u64, |c, v| c.soc.threads = v as usize),
        Key::num(&NODES, |c| c.soc.nodes as u64, |c, v| c.soc.nodes = v as usize),
        Key::num(&MAXOUT, |c| c.soc.max_outstanding_per_thread as u64,
            |c, v| c.soc.max_outstanding_per_thread = v as usize),
        Key::num(&ARQ, |c| c.mac.arq_entries as u64, |c, v| c.mac.arq_entries = v as usize),
        Key::num(&POP, |c| c.mac.pop_interval, |c, v| c.mac.pop_interval = v),
        Key::num(&ACCEPTS, |c| c.mac.accepts_per_cycle as u64,
            |c, v| c.mac.accepts_per_cycle = v as usize),
        Key::flag("bypass", |c| c.mac.bypass_enabled, |c, on| c.mac.bypass_enabled = on),
        Key::flag("hiding", |c| c.mac.latency_hiding, |c, on| c.mac.latency_hiding = on),
        Key { name: "table", form: Form::Word(&["span", "always256", "perchunk64"],
            |c| c.mac.flit_table as usize,
            |c, i| c.mac.flit_table = [SpanRounded, Always256, PerChunk64][i]) },
        Key::num(&ROUTER, |c| c.mac.router_queue_depth as u64,
            |c, v| c.mac.router_queue_depth = v as usize),
        Key::num(&VAULTQ, |c| c.hmc.vault_queue_depth as u64,
            |c, v| c.hmc.vault_queue_depth = v as usize),
        Key::flag("nomac", |c| c.mac_disabled, |c, on| c.mac_disabled = on),
        Key { name: "cubes", form: Form::Num(None, |c| c.net.cubes as u64,
            |c, v| net(c).cubes = v as usize) },
        Key { name: "topology", form: Form::Word(&["chain", "ring", "mesh"],
            |c| c.net.topology as usize, |c, i| net(c).topology = [DaisyChain, Ring, Mesh2x2][i]) },
        Key { name: "placement", form: Form::Word(&["host", "percube"],
            |c| c.net.placement as usize, |c, i| net(c).placement = [HostOnly, PerCube][i]) },
        Key { name: "mapping", form: Form::Word(&["contig", "interleave"],
            |c| c.net.mapping as usize, |c, i| net(c).mapping = [Contiguous, Interleaved][i]) },
        Key::flag("net", |c| c.net.enabled,
            |c, on| if on { c.net.enabled = true } else { c.net = NetConfig::default() }),
        Key::num(&INTERVAL, |c| c.adapt.interval, |c, v| adapt(c).interval = v),
        Key::num(&MIN_POP, |c| c.adapt.min_pop_interval, |c, v| adapt(c).min_pop_interval = v),
        Key::num(&MAX_POP, |c| c.adapt.max_pop_interval, |c, v| adapt(c).max_pop_interval = v),
        Key::num(&MIN_ACCEPTS, |c| c.adapt.min_accepts as u64,
            |c, v| adapt(c).min_accepts = v as usize),
        Key::num(&MAX_ACCEPTS, |c| c.adapt.max_accepts as u64,
            |c, v| adapt(c).max_accepts = v as usize),
        Key::num(&EVIDENCE, |c| c.adapt.evidence_threshold.into(),
            |c, v| adapt(c).evidence_threshold = v as u32),
        Key::num(&HOLD, |c| c.adapt.hold_intervals.into(),
            |c, v| adapt(c).hold_intervals = v as u32),
        Key::flag("adapt", |c| c.adapt.enabled,
            |c, on| if on { c.adapt.enabled = true } else { c.adapt = AdaptConfig::default() }),
    ];
}

/// Where the coalescer sits relative to the cube network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MacPlacement {
    /// One MAC at the host: packets crossing the network are already
    /// coalesced (fewer, larger packets pay the hop serialization).
    #[default]
    HostOnly,
    /// One MAC at each cube's ingress: raw 16 B requests cross the
    /// network and coalesce only against traffic for the same cube.
    PerCube,
}

/// How the cube-id field is carved out of the 52-bit physical address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CubeMapping {
    /// Cube id = high-order capacity bits (`addr / capacity`). Cube 0
    /// owns the lowest addresses, so the mapping restricted to cube 0
    /// is bit-for-bit today's single-cube mapping.
    Contiguous,
    /// Cube bits sit just above the vault/bank interleave bits, so
    /// consecutive 128 KB row groups rotate across cubes and ordinary
    /// working sets exercise every cube.
    #[default]
    Interleaved,
}

/// Multi-cube network configuration (the `mac-net` subsystem).
///
/// Disabled by default: a disabled net is the classic single-cube
/// system and takes the `system.rs` fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Route requests through the cube network instead of a single
    /// directly-attached device.
    pub enabled: bool,
    /// Number of cubes (power of two; `Mesh2x2` requires exactly 4).
    pub cubes: usize,
    /// How the cubes are wired together.
    pub topology: NetTopology,
    /// Where coalescing happens.
    pub placement: MacPlacement,
    /// How addresses map onto cubes.
    pub mapping: CubeMapping,
}

impl NetConfig {
    /// Pass-through latency a transit packet pays inside an
    /// intermediate cube's switch (link deser → route → reser), in
    /// core cycles, per hop — on top of link serialization. Switch
    /// pass-through ≈ 12 ns (Hadidi et al. measure 9–14 ns per
    /// intermediate cube): 40 cycles at 3.3 GHz.
    pub const FORWARD_LATENCY: u64 = 40;

    /// Bits of the address that select the cube (`log2(cubes)`).
    pub fn cube_bits(&self) -> u32 {
        debug_assert!(self.cubes.is_power_of_two());
        self.cubes.trailing_zeros()
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            enabled: false,
            cubes: 1,
            topology: NetTopology::DaisyChain,
            placement: MacPlacement::HostOnly,
            mapping: CubeMapping::Interleaved,
        }
    }
}

/// Adaptive coalescer controller bounds and cadence (DESIGN.md §17).
///
/// Disabled by default: a default config runs the fixed Table 1 knobs
/// and is byte-identical to a system built before this struct existed.
/// When enabled, the `AdaptiveController` in `mac-coalescer` observes
/// sampled MAC/device signals every `interval` cycles and may retune
/// the ARQ pop interval and the accept width — always inside the
/// min/max bounds declared here. The 16 B bypass switch stays at
/// [`MacConfig::bypass_enabled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Run the adaptive controller at all.
    pub enabled: bool,
    /// Decision cadence in cycles. Decision points double as event-skip
    /// clamp boundaries, so both run-loop modes land on them exactly.
    pub interval: u64,
    /// Lowest ARQ pop interval the controller may set (fastest drain).
    pub min_pop_interval: u64,
    /// Highest ARQ pop interval the controller may set (deepest merge).
    pub max_pop_interval: u64,
    /// Narrowest accept width the controller may set.
    pub min_accepts: usize,
    /// Widest accept width the controller may set.
    pub max_accepts: usize,
    /// Consecutive-evidence votes required before a retune fires.
    pub evidence_threshold: u32,
    /// Decision intervals the controller holds still after any retune
    /// (hysteresis): at most one retune per `hold_intervals + 1`
    /// intervals.
    pub hold_intervals: u32,
}

impl AdaptConfig {
    /// The controller turned off — the fixed-knob system, byte-identical
    /// to pre-adaptive runs. Same as `AdaptConfig::default()`.
    pub fn disabled() -> Self {
        AdaptConfig::default()
    }

    /// The default bounds with the controller switched on: pop interval
    /// free in 1..=8, accept width in 1..=4.
    pub fn tuned() -> Self {
        AdaptConfig {
            enabled: true,
            // Responsive enough to retune within a few thousand cycles
            // (short kernels finish in tens of thousands) while the
            // threshold still filters single-window noise.
            interval: 2048,
            hold_intervals: 2,
            ..AdaptConfig::default()
        }
    }
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            enabled: false,
            interval: 8192,
            min_pop_interval: 1,
            max_pop_interval: 8,
            min_accepts: 1,
            max_accepts: 4,
            evidence_threshold: 3,
            hold_intervals: 4,
        }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemConfig {
    /// Core-side (node) parameters.
    pub soc: SocConfig,
    /// MAC coalescer parameters.
    pub mac: MacConfig,
    /// HMC parameters, used when `backend` is [`MemBackend::Hmc`].
    pub hmc: HmcConfig,
    /// HBM parameters, used when `backend` is [`MemBackend::Hbm`].
    pub hbm: HbmConfig,
    /// DDR parameters, used when `backend` is [`MemBackend::Ddr`].
    pub ddr: DdrConfig,
    /// Which 3D-stacked device the node attaches to.
    pub backend: MemBackend,
    /// Run the baseline path (raw 16 B requests straight to the device)
    /// instead of coalescing through the MAC.
    pub mac_disabled: bool,
    /// Multi-cube network parameters (ignored unless `net.enabled`).
    pub net: NetConfig,
    /// Adaptive controller parameters (ignored unless `adapt.enabled`).
    pub adapt: AdaptConfig,
}

impl SystemConfig {
    /// The paper's Table 1 configuration with `threads` hardware threads.
    pub fn paper(threads: usize) -> Self {
        SystemConfig {
            soc: SocConfig {
                threads,
                ..SocConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    /// Same system with the MAC turned off (raw-request baseline).
    pub fn without_mac(mut self) -> Self {
        self.mac_disabled = true;
        self
    }

    /// Same system attached to HBM instead of HMC (§4.3).
    pub fn with_hbm(mut self) -> Self {
        self.backend = MemBackend::Hbm;
        self
    }

    /// Same system attached to a conventional DDR4 channel (§2.2).
    pub fn with_ddr(mut self) -> Self {
        self.backend = MemBackend::Ddr;
        self
    }

    /// Same system attached to a network of `cubes` HMC cubes.
    pub fn with_net(
        mut self,
        cubes: usize,
        topology: NetTopology,
        placement: MacPlacement,
    ) -> Self {
        self.net = NetConfig {
            enabled: true,
            cubes,
            topology,
            placement,
            ..NetConfig::default()
        };
        self
    }

    /// Same system with the adaptive coalescer controller attached.
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = adapt;
        self
    }

    /// Check every value outside input can set against the [`bounds`]
    /// table, the network's shape against [`NetTopology::check_cubes`],
    /// and that per-cube MACs serve a single host node. The error names
    /// the first value that fails.
    pub fn validate(&self) -> Result<(), String> {
        use bounds::*;
        let (soc, mac) = (&self.soc, &self.mac);
        THREADS.check(soc.threads as u64)?;
        NODES.check(soc.nodes as u64)?;
        MAXOUT.check(soc.max_outstanding_per_thread as u64)?;
        ARQ.check(mac.arq_entries as u64)?;
        POP.check(mac.pop_interval)?;
        ACCEPTS.check(mac.accepts_per_cycle as u64)?;
        ROUTER.check(mac.router_queue_depth as u64)?;
        VAULTQ.check(self.hmc.vault_queue_depth as u64)?;
        self.net.topology.check_cubes(self.net.cubes as u64)?;
        if self.net.enabled && self.net.placement == MacPlacement::PerCube && soc.nodes != 1 {
            return Err(format!(
                "per-cube placement models one host node, got nodes={}",
                soc.nodes
            ));
        }
        let a = &self.adapt;
        if a.enabled {
            INTERVAL.check(a.interval)?;
            MIN_POP.check(a.min_pop_interval)?;
            MAX_POP.check(a.max_pop_interval)?;
            MIN_ACCEPTS.check(a.min_accepts as u64)?;
            MAX_ACCEPTS.check(a.max_accepts as u64)?;
            EVIDENCE.check(u64::from(a.evidence_threshold))?;
            HOLD.check(u64::from(a.hold_intervals))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ROW_BYTES;

    #[test]
    fn defaults_match_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.soc.cores, 8);
        assert_eq!(SocConfig::FREQ_GHZ, 3.3);
        assert_eq!(SocConfig::SPM_BYTES, 1 << 20);
        assert_eq!(c.hmc.links, 4);
        assert_eq!(c.hmc.capacity, 8 << 30);
        assert_eq!(ROW_BYTES, 256);
        assert_eq!(c.mac.arq_entries, 32);
        assert_eq!(MacConfig::ARQ_ENTRY_BYTES, 64);
    }

    #[test]
    fn hmc_has_512_banks() {
        // §2.2.1: "512 banks in an 8GB HMC".
        assert_eq!(HmcConfig::default().total_banks(), 512);
    }

    #[test]
    fn max_targets_per_entry_is_12() {
        // §5.3.3: 64 B entry - 10 B addr/map = 54 B / 4.5 B = 12 targets.
        assert_eq!(MacConfig::max_targets_per_entry(), 12);
    }

    #[test]
    fn arq_bytes_match_figure16() {
        // Figure 16: 8 entries -> 512 B ... 256 entries -> 16 KB.
        for (entries, bytes) in [(8, 512), (16, 1024), (32, 2048), (64, 4096), (256, 16384)] {
            let c = MacConfig {
                arq_entries: entries,
                ..MacConfig::default()
            };
            assert_eq!(c.arq_bytes(), bytes);
        }
    }

    #[test]
    fn uncontended_read_latency_near_93ns() {
        type H = HmcConfig;
        // request link (1 FLIT) + logic in + DRAM 16B + logic out +
        // response link (2 FLITs). Precharge (tRP) overlaps the response
        // path, so it is excluded from the observed round trip.
        let flit = H::flit_cycles_x16();
        let cycles = flit.div_ceil(16)
            + H::LOGIC_LATENCY
            + (H::dram_service_cycles(16) - H::T_RP)
            + H::LOGIC_LATENCY
            + (2 * flit).div_ceil(16);
        let ns = cycles as f64 / SocConfig::FREQ_GHZ;
        assert!(
            (85.0..101.0).contains(&ns),
            "uncontended latency {ns:.1} ns not near 93 ns"
        );
    }

    #[test]
    fn paper_config_sets_threads() {
        for t in [2, 4, 8] {
            assert_eq!(SystemConfig::paper(t).soc.threads, t);
        }
        assert!(SystemConfig::paper(8).without_mac().mac_disabled);
    }

    #[test]
    fn net_is_disabled_by_default() {
        let c = SystemConfig::default();
        assert!(!c.net.enabled);
        assert_eq!(c.net.cubes, 1);
        assert_eq!(c.net.cube_bits(), 0);
    }

    #[test]
    fn cube_counts_are_checked_per_shape() {
        for cubes in [1, 2, 4, 8] {
            assert_eq!(NetTopology::DaisyChain.check_cubes(cubes), Ok(()));
            assert_eq!(NetTopology::Ring.check_cubes(cubes), Ok(()));
        }
        for cubes in [0, 3, 5, 16, u64::MAX] {
            assert!(NetTopology::DaisyChain.check_cubes(cubes).is_err());
        }
        assert_eq!(NetTopology::Mesh2x2.check_cubes(4), Ok(()));
        for cubes in [1, 2, 3, 8] {
            assert!(NetTopology::Mesh2x2.check_cubes(cubes).is_err());
        }
    }

    #[test]
    fn validate_names_the_first_value_out_of_range() {
        for t in [1, 2, 4, 8, 64] {
            assert_eq!(SystemConfig::paper(t).validate(), Ok(()));
        }
        let tuned = SystemConfig::paper(8).with_adapt(AdaptConfig::tuned());
        assert_eq!(tuned.validate(), Ok(()));
        let broken = |f: fn(&mut SystemConfig)| {
            let mut c = tuned.clone();
            f(&mut c);
            c
        };
        for (c, want) in [
            (broken(|c| c.soc.threads = 65), "threads=65 outside 1..=64"),
            (broken(|c| c.soc.nodes = 0), "nodes=0 outside 1..=64"),
            (
                broken(|c| c.mac.arq_entries = 4097),
                "arq=4097 outside 1..=4096",
            ),
            (
                broken(|c| c.mac.pop_interval = 0),
                "pop=0 outside 1..=65536",
            ),
            (
                broken(|c| c.mac.router_queue_depth = 0),
                "router=0 outside 1..=18446744073709551615",
            ),
            (broken(|c| c.net.cubes = 3), "cubes must be 1, 2, 4, or 8"),
            (
                broken(|c| c.adapt.hold_intervals = u32::MAX),
                "hold=4294967295 outside 0..=65536",
            ),
            (
                broken(|c| {
                    c.soc.nodes = 2;
                    c.net = SystemConfig::default()
                        .with_net(2, NetTopology::Ring, MacPlacement::PerCube)
                        .net;
                }),
                "per-cube placement models one host node, got nodes=2",
            ),
        ] {
            assert_eq!(c.validate(), Err(want.to_string()));
        }
        // The adaptive rows bind only an enabled controller.
        let mut off = SystemConfig::paper(8);
        off.adapt.hold_intervals = u32::MAX;
        assert_eq!(off.validate(), Ok(()));
    }

    #[test]
    fn bounds_parse_rejects_non_numbers_in_the_same_shape() {
        assert_eq!(bounds::SCALE.parse("64"), Ok(64));
        assert_eq!(
            bounds::THREADS.parse("eight"),
            Err("threads=eight outside 1..=64".into())
        );
        assert_eq!(
            bounds::SCALE.parse("65"),
            Err("scale=65 outside 1..=64".into())
        );
    }

    #[test]
    fn with_net_enables_and_sets_shape() {
        let c = SystemConfig::paper(8).with_net(4, NetTopology::Ring, MacPlacement::PerCube);
        assert!(c.net.enabled);
        assert_eq!(c.net.cubes, 4);
        assert_eq!(c.net.cube_bits(), 2);
        assert_eq!(c.net.topology, NetTopology::Ring);
        assert_eq!(c.net.placement, MacPlacement::PerCube);
    }

    #[test]
    fn adapt_is_disabled_by_default_and_bounds_are_sane() {
        let c = SystemConfig::default();
        assert!(!c.adapt.enabled);
        assert_eq!(c.adapt, AdaptConfig::disabled());
        let t = AdaptConfig::tuned();
        assert!(t.enabled);
        assert!(t.min_pop_interval >= 1);
        assert!(t.min_pop_interval <= t.max_pop_interval);
        assert!(t.min_accepts >= 1);
        assert!(t.min_accepts <= t.max_accepts);
        assert!(t.interval >= 1);
        // The default static knobs sit inside the default bounds, so an
        // identity-bounded controller starts from the Table 1 system.
        let m = MacConfig::default();
        assert!((t.min_pop_interval..=t.max_pop_interval).contains(&m.pop_interval));
        assert!((t.min_accepts..=t.max_accepts).contains(&m.accepts_per_cycle));
        let on = SystemConfig::paper(4).with_adapt(AdaptConfig::tuned());
        assert!(on.adapt.enabled);
    }

    #[test]
    fn flit_serialization_cycles_are_positive() {
        assert!(HmcConfig::flit_cycles_x16() > 0);
        // One FLIT at 30 GB/s, 3.3 GHz ~ 1.76 cycles -> 28 in x16 fixed point.
        assert_eq!(HmcConfig::flit_cycles_x16(), 28);
    }
}
