//! The five workloads. Each is one pass through public functions of the
//! product crates, timed from outside: the same code runs traced and
//! untraced, and a traced pass adds the extras (per-family analysis
//! times, isolated kernels, alternative grid settings) after the
//! artifact is written, so they never count towards `wall_s`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ethmeter_core::analysis::{
    commit, decentralization, empty_blocks, first_observation, forks, propagation, redundancy,
    reorg, rewards, sequences,
};
use ethmeter_core::chain::tree::BlockTree;
use ethmeter_core::experiments::{self, headline_scalars, reorg_scalars, Suite};
use ethmeter_core::measure::csv;
use ethmeter_core::prelude::*;
use ethmeter_core::sim::engine::RunOutcome;
use ethmeter_core::sim::Engine;
use ethmeter_core::{AxisSetter, SimWorld};

use crate::inputs::{self, DatasetShape};
use crate::kernels::{self, Cardinalities};
use crate::trace::Tracer;

/// Simulated events `small-e2e` processes: ~40% of the preset's two
/// hours, and fewer than any seed's two hours hold, so the budget always
/// ends the run and every seed does the same amount of work.
pub const SMALL_EVENTS: u64 = 12_000_000;
/// Simulated events `planet-cold` processes (about 13 simulated seconds).
pub const PLANET_EVENTS: u64 = 2_750_000;
/// Steps the traced engine is driven in.
const SLICES: u64 = 120;

/// `dataset-month`: a quarter of the paper's 201k-block month, spilling
/// under a quarter of a 32 MiB campaign budget.
pub const DATASET: DatasetShape = DatasetShape {
    blocks: 50_000,
    txs_per_block: 4,
    receptions: 3,
    sibling_every: 16,
};
pub const DATASET_BUDGET: usize = 8 << 20;

/// `grid-mixed`: seeds per grid point; 2 tx rates x 3 dynamics x 3
/// consensus engines make 18 points.
pub const GRID_SEEDS: usize = 7;
pub const GRID_JOBS: usize = GRID_SEEDS * 2 * 3 * 3;
pub const GRID_THREADS: usize = 2;

/// `chain-only`: the selfish-mining grid of Niu & Feng.
const ALPHAS: [f64; 8] = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
const GAMMAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const SELFISH_SEEDS: usize = 1;
const SELFISH_BLOCKS: u64 = 100_000;

/// Seconds since the parent spawned this process.
pub struct Clock {
    boot_s: f64,
    origin: Instant,
}

impl Clock {
    pub fn new(boot_s: f64) -> Self {
        Clock {
            boot_s,
            origin: Instant::now(),
        }
    }

    pub fn now(&self) -> f64 {
        self.boot_s + self.origin.elapsed().as_secs_f64()
    }
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub clock: &'a Clock,
    pub tr: &'a mut Tracer,
    /// Where artifacts and spill segments of this process go.
    pub run_dir: &'a Path,
}

/// Direction-less facts that two runs of one seed must agree on exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    pub events: u64,
    pub fingerprint: u64,
    pub rows: u64,
    pub segments: u64,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Units of work, and the seconds of the phase that did them.
    pub units: u64,
    pub run_s: f64,
    pub peak_rss_mib: f64,
    pub facts: Facts,
    pub checks: Vec<(String, bool)>,
    pub layer: BTreeMap<String, f64>,
}

impl Pass {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_owned(), ok));
    }

    fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_owned(), value);
    }

    /// The artifact is written: stamp `wall_s` and the memory high-water
    /// mark before any check or extra can raise it.
    fn finish(&mut self, ctx: &Ctx, name: &str, artifact: &str) {
        std::fs::write(ctx.run_dir.join(format!("{name}.txt")), artifact)
            .expect("run directory is writable");
        self.wall_s = ctx.clock.now();
        self.peak_rss_mib = peak_rss_mib();
        self.set("core.report.bytes", artifact.len() as f64);
    }
}

/// One pass of `workload`. Every layer span is a child of one root span
/// named after the workload, whose self time is what no layer accounts for.
pub fn run(workload: &str, ctx: &mut Ctx) -> Pass {
    let root = ctx.tr.begin(workload);
    let pass = match workload {
        "small-e2e" => campaign(ctx, workload, inputs::small_scenario, SMALL_EVENTS),
        "planet-cold" => campaign(ctx, workload, inputs::planet_scenario, PLANET_EVENTS),
        "dataset-month" => dataset_month(ctx),
        "grid-mixed" => grid_mixed(ctx),
        "chain-only" => chain_only(ctx),
        other => panic!("unknown workload {other}"),
    };
    ctx.tr.end(root);
    pass
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fingerprint of a workload that has no campaign to fingerprint.
fn fnv(artifact: &str) -> u64 {
    inputs::fnv1a(inputs::FNV_OFFSET, artifact.as_bytes())
}

/// Every table and figure of a campaign as text, as `repro all` prints.
fn render_suite(data: &CampaignData, suite: &Suite, revenue: &rewards::RevenueReport) -> String {
    let table2 = match &suite.table2 {
        Ok(r) => r.to_string(),
        Err(e) => format!("Table II unavailable: {e}"),
    };
    format!(
        "{}\n\n{}\n\n{table2}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{revenue}\n\n{}\n",
        experiments::table1(data),
        suite.fig1,
        suite.fig2,
        suite.fig3,
        suite.fig4,
        suite.fig5,
        suite.fig6,
        suite.table3,
        suite.fig7,
        suite.decentralization,
    )
}

/// Suite, revenue and rendering: the tail every campaign-shaped workload
/// shares. Returns the artifact.
fn analyse_and_render(ctx: &mut Ctx, pass: &mut Pass, data: &CampaignData) -> (Suite, String) {
    let s = ctx.tr.begin("analysis.suite");
    let suite = Suite::from_campaign(data);
    ctx.tr.end(s);
    let s = ctx.tr.begin("analysis.rewards");
    let revenue = rewards::analyze(data);
    ctx.tr.end(s);
    let s = ctx.tr.begin("core.report.render");
    let artifact = render_suite(data, &suite, &revenue);
    ctx.tr.end(s);
    pass.check("report is not empty", artifact.len() > 1_000);
    (suite, artifact)
}

/// Traced extra: each report family alone, and the headline statistics.
fn analysis_families(ctx: &mut Ctx, pass: &mut Pass, data: &CampaignData, suite: &Suite) {
    if !ctx.tr.enabled() {
        return;
    }
    let extras = ctx.tr.begin("trace.extras.analysis");
    let mut family = |name: &str, f: &dyn Fn()| {
        let start = Instant::now();
        f();
        pass.set(&format!("analysis.{name}_s"), start.elapsed().as_secs_f64());
    };
    family("propagation", &|| {
        black_box(propagation::analyze(data));
    });
    family("redundancy", &|| {
        black_box(redundancy::analyze(data).is_ok());
    });
    family("first_observation", &|| {
        black_box((
            first_observation::geo(data),
            first_observation::by_pool(data, 15),
        ));
    });
    family("commit", &|| {
        black_box((commit::analyze(data), commit::ordering(data)));
    });
    family("empty_blocks", &|| {
        black_box(empty_blocks::analyze(data, 15));
    });
    family("forks", &|| {
        black_box(forks::analyze(data));
    });
    family("sequences", &|| {
        black_box(sequences::analyze(data));
    });
    family("decentralization", &|| {
        black_box(decentralization::analyze(data));
    });
    family("reorg", &|| {
        black_box(reorg::analyze(data));
    });
    ctx.tr.end(extras);

    let census = &suite.table3.census;
    let delays = &suite.fig1.delays;
    pass.set(
        "analysis.stat.prop_median_ms",
        if delays.is_empty() {
            0.0
        } else {
            delays.median()
        },
    );
    pass.set(
        "analysis.stat.fork_rate",
        (census.recognized_uncles + census.unrecognized) as f64 / census.total().max(1) as f64,
    );
    pass.set("analysis.stat.empty_fraction", suite.fig6.empty_fraction());
    pass.set(
        "analysis.stat.commit12_median_s",
        suite.fig4.median_commit_12().unwrap_or(0.0),
    );
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// `small-e2e` and `planet-cold`: scenario, world, engine, campaign,
/// suite, report, sequentially in one thread.
fn campaign(ctx: &mut Ctx, name: &str, build: fn(u64) -> Scenario, budget: u64) -> Pass {
    let mut pass = Pass::default();
    let s = ctx.tr.begin("core.scenario.build");
    let scenario = build(ctx.seed);
    ctx.tr.end(s);
    let s = ctx.tr.begin("core.world.new");
    let world = SimWorld::new(&scenario);
    ctx.tr.end(s);
    let s = ctx.tr.begin("core.world.initial_events");
    let mut engine = Engine::new(world);
    let initial = engine.world_mut().initial_events();
    let initial_events = initial.len();
    for (t, e) in initial {
        engine.schedule(t, e);
    }
    ctx.tr.end(s);
    pass.setup_s = ctx.clock.now();

    // Driven in slices only when traced: resumption is bit-identical, and
    // between slices the queue depth and the counters can be read.
    let slices = if ctx.tr.enabled() { SLICES } else { 1 };
    let deadline = SimTime::ZERO + scenario.duration;
    let mut slice_ns = Vec::new();
    let mut pending = Vec::new();
    let mut outcome = RunOutcome::BudgetExhausted;
    let run_start = Instant::now();
    let s = ctx.tr.begin("sim.engine.run");
    for k in 1..=slices {
        let target = budget * k / slices;
        let before = engine.processed();
        let slice = ctx.tr.begin("sim.engine.slice");
        let start = Instant::now();
        outcome = engine.run_with_limits(deadline, target - before);
        ctx.tr.end(slice);
        let done = engine.processed() - before;
        slice_ns.push(start.elapsed().as_nanos() as f64 / done.max(1) as f64);
        pending.push(engine.pending() as f64);
    }
    ctx.tr.end(s);
    pass.run_s = run_start.elapsed().as_secs_f64();
    pass.units = engine.processed();
    pass.facts.events = engine.processed();
    pass.check(
        "the event budget, not the horizon, ended the run",
        outcome == RunOutcome::BudgetExhausted && engine.processed() == budget,
    );
    let stats = engine.world().stats;
    let nodes = engine.world().node_count();
    let peers: usize = (0..nodes)
        .map(|n| {
            engine
                .world()
                .peers_of(ethmeter_core::types::NodeId(n as u32))
                .len()
        })
        .sum();

    let s = ctx.tr.begin("core.world.into_campaign");
    let data = engine.into_world().into_campaign(scenario.duration);
    ctx.tr.end(s);
    let (suite, artifact) = analyse_and_render(ctx, &mut pass, &data);
    pass.finish(ctx, name, &artifact);

    pass.facts.fingerprint = data.fingerprint();
    if name == "small-e2e" {
        pass.check("the chain grew", data.truth.tree.head_number() > 0);
        pass.check("figure 1 measured blocks", suite.fig1.blocks_measured > 0);
    }
    if !ctx.tr.enabled() {
        return pass;
    }

    let events = pass.units as f64;
    let run_ns = pass.run_s * 1e9;
    pass.set("core.world.initial_events", initial_events as f64);
    pass.set("sim.engine.events", events);
    pass.set("sim.engine.ns_per_event", run_ns / events);
    slice_ns.sort_by(f64::total_cmp);
    pass.set(
        "sim.engine.slice_ns_per_event_p50",
        percentile(&slice_ns, 0.5),
    );
    pass.set(
        "sim.engine.slice_ns_per_event_p95",
        percentile(&slice_ns, 0.95),
    );
    let pending_mean = pending.iter().sum::<f64>() / pending.len() as f64;
    pass.set("sim.engine.pending_mean", pending_mean);
    pass.set(
        "sim.engine.pending_max",
        pending.iter().copied().fold(0.0, f64::max),
    );
    pass.set("net.messages", stats.messages as f64);
    pass.set("net.bytes", stats.bytes as f64);
    pass.set("net.messages_per_event", stats.messages as f64 / events);
    pass.set("mining.blocks_produced", stats.blocks_produced as f64);
    pass.set("workload.txs_submitted", stats.txs_submitted as f64);
    pass.set("dynamics.entries", scenario.dynamics.entries().len() as f64);
    analysis_families(ctx, &mut pass, &data, &suite);
    drop((data, suite));

    let extras = ctx.tr.begin("trace.extras.kernels");
    let c = Cardinalities {
        nodes,
        peers_per_node: peers / nodes.max(1),
        pending: pending_mean as usize,
        keys: stats.txs_submitted as usize,
        known_cap: scenario.net.known_txs_cap,
        header_window: scenario.net.header_window,
        txs_per_block: (scenario.workload.tx_rate * scenario.interblock.as_secs_f64()) as usize,
        gas_limit: scenario.gas_limit,
    };
    let queue = kernels::queue_push_pop_ns(c.pending);
    let null_world = kernels::null_world_ns_per_event(c.pending);
    let (known_insert, known_contains) = kernels::known_set_ns(&c);
    let headerview = kernels::headerview_insert_ns(&c);
    let latency = kernels::latency_sample_ns();
    let (pool_add, pool_pack) = kernels::txpool_ns(&c);
    pass.set("sim.queue.push_pop_ns", queue);
    pass.set("sim.queue.est_share", queue * events / run_ns);
    pass.set("sim.engine.null_world_ns_per_event", null_world);
    pass.set("net.known.insert_ns", known_insert);
    pass.set("net.known.contains_ns", known_contains);
    pass.set("net.headerview.insert_ns", headerview);
    pass.set(
        "net.headerview.est_share",
        headerview * stats.imports as f64 / run_ns,
    );
    pass.set("net.topology.build_s", kernels::topology_build_s(&c));
    pass.set("geo.latency.sample_ns", latency);
    pass.set("txpool.add_ns", pool_add);
    pass.set("txpool.pack_ns", pool_pack);
    // Engine loop and queue per event; one known-set probe, one insert and
    // one latency draw per message; one header insert per import; one
    // pack per block mined. What is left is the handlers themselves.
    let explained = null_world * events
        + (known_insert + known_contains + latency) * stats.messages as f64
        + headerview * stats.imports as f64
        + pool_pack * stats.blocks_produced as f64;
    pass.set("sim.engine.unexplained_share", 1.0 - explained / run_ns);
    pass.set("core.world.reset_s", world_reset_s(&scenario, budget / 20));
    ctx.tr.end(extras);
    pass
}

/// Seconds `SimWorld::reset` takes on a world that has run `events`
/// events: what a reused grid worker pays between two jobs.
fn world_reset_s(scenario: &Scenario, events: u64) -> f64 {
    let mut engine = Engine::new(SimWorld::new(scenario));
    for (t, e) in engine.world_mut().initial_events() {
        engine.schedule(t, e);
    }
    engine.run_with_limits(SimTime::ZERO + scenario.duration, events);
    let start = Instant::now();
    engine.reset();
    engine.world_mut().reset(scenario);
    start.elapsed().as_secs_f64()
}

/// A scratch directory for spill segments, removed when dropped.
struct SpillDir(PathBuf);

impl SpillDir {
    fn new(run_dir: &Path, name: &str) -> Self {
        let dir = run_dir.join(name);
        std::fs::create_dir_all(&dir).expect("run directory is writable");
        SpillDir(dir)
    }

    fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `dataset-month`: no simulation. Ground truth is generated (set-up),
/// then recorded into spilling observer logs, analysed, exported,
/// re-imported and fingerprinted.
fn dataset_month(ctx: &mut Ctx) -> Pass {
    let mut pass = Pass::default();
    let spill = SpillDir::new(ctx.run_dir, "spill");
    let s = ctx.tr.begin("chain.tree.build");
    let truth = inputs::dataset_truth(ctx.seed, DATASET);
    ctx.tr.end(s);
    pass.setup_s = ctx.clock.now();
    let distinct = 5 * (truth.blocks.len() + truth.txs.len()) as u64;
    let chain_blocks = truth.truth.tree.len();

    let spill_to = Some((spill.0.as_path(), DATASET_BUDGET));
    let (data, block_rows, tx_rows) =
        inputs::record_dataset(ctx.seed, DATASET, truth, spill_to, ctx.tr);
    let (suite, artifact) = analyse_and_render(ctx, &mut pass, &data);

    let s = ctx.tr.begin("measure.csv.export");
    let exported: Vec<(String, String)> = data
        .observers
        .iter()
        .map(|(_, log)| (csv::blocks_to_csv(log), csv::txs_to_csv(log)))
        .collect();
    ctx.tr.end(s);
    let s = ctx.tr.begin("measure.csv.import");
    let imported: u64 = exported
        .iter()
        .map(|(blocks, txs)| {
            let blocks = csv::blocks_from_csv(blocks).expect("own export parses");
            let txs = csv::txs_from_csv(txs).expect("own export parses");
            (blocks.len() + txs.len()) as u64
        })
        .sum();
    ctx.tr.end(s);
    let csv_bytes: usize = exported.iter().map(|(b, t)| b.len() + t.len()).sum();
    // Every export carries one header line.
    let csv_rows: u64 = exported
        .iter()
        .map(|(b, t)| (b.lines().count() + t.lines().count() - 2) as u64)
        .sum();
    drop(exported);
    let s = ctx.tr.begin("measure.fingerprint");
    pass.facts.fingerprint = data.fingerprint();
    ctx.tr.end(s);
    pass.finish(ctx, "dataset-month", &artifact);

    pass.units = block_rows + tx_rows;
    pass.run_s = pass.wall_s - pass.setup_s;
    pass.facts.rows = pass.units;
    pass.facts.segments = data
        .observers
        .iter()
        .map(|(_, l)| l.spilled_segments() as u64)
        .sum();
    let recorded: u64 = data
        .observers
        .iter()
        .map(|(_, l)| (l.block_count() + l.tx_count()) as u64)
        .sum();
    pass.check(
        "rows re-imported == rows exported == distinct rows recorded",
        imported == csv_rows && csv_rows == recorded && recorded == distinct,
    );
    pass.check("the logs spilled", pass.facts.segments > 0);
    pass.check("spilled reports equal in-memory reports at 1/10 scale", {
        let small = DatasetShape {
            blocks: DATASET.blocks / 10,
            ..DATASET
        };
        let dir = SpillDir::new(ctx.run_dir, "spill-tenth");
        let report = |spill: Option<(&Path, usize)>| {
            let truth = inputs::dataset_truth(ctx.seed, small);
            let mut untraced = Tracer::new(false, String::new());
            let (data, ..) = inputs::record_dataset(ctx.seed, small, truth, spill, &mut untraced);
            let segments: usize = data
                .observers
                .iter()
                .map(|(_, l)| l.spilled_segments())
                .sum();
            let suite = Suite::from_campaign(&data);
            (
                render_suite(&data, &suite, &rewards::analyze(&data)),
                segments,
            )
        };
        let (spilled, segments) = report(Some((&dir.0, DATASET_BUDGET / 10)));
        let (in_memory, _) = report(None);
        segments > 0 && spilled == in_memory
    });
    if !ctx.tr.enabled() {
        return pass;
    }

    pass.set("chain.tree.blocks", chain_blocks as f64);
    pass.set(
        "measure.log.record_block_ns",
        ctx.tr.total_s("measure.log.record_block") * 1e9 / block_rows as f64,
    );
    pass.set(
        "measure.log.record_tx_ns",
        ctx.tr.total_s("measure.log.record_tx") * 1e9 / tx_rows as f64,
    );
    pass.set("measure.spill.segments", pass.facts.segments as f64);
    pass.set("measure.spill.disk_bytes", spill.disk_bytes() as f64);
    pass.set(
        "measure.log.peak_mem_bytes",
        data.observers
            .iter()
            .map(|(_, l)| l.peak_mem_bytes() as f64)
            .sum(),
    );
    pass.set("measure.csv.bytes", csv_bytes as f64);
    analysis_families(ctx, &mut pass, &data, &suite);

    let extras = ctx.tr.begin("trace.extras.kernels");
    let start = Instant::now();
    let scanned: usize = data
        .observers
        .iter()
        .map(|(_, l)| l.scan_blocks().count())
        .sum();
    pass.set("measure.scan.blocks_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    let scanned = scanned
        + data
            .observers
            .iter()
            .map(|(_, l)| l.scan_txs().count())
            .sum::<usize>();
    pass.set("measure.scan.txs_s", start.elapsed().as_secs_f64());
    pass.check("scans yield every distinct row", scanned as u64 == distinct);
    // The same blocks into a fresh tree, parents first.
    let mut blocks: Vec<_> = data.truth.tree.all_blocks().cloned().collect();
    blocks.sort_by_key(|b| (b.number(), b.mined_at()));
    let start = Instant::now();
    let mut tree = BlockTree::new();
    let mut inserted = 0usize;
    for block in blocks {
        // The tree's own genesis is already there.
        inserted += usize::from(block.number() > 0 && tree.insert(block).is_ok());
    }
    pass.set(
        "chain.tree.insert_ns",
        start.elapsed().as_nanos() as f64 / inserted.max(1) as f64,
    );
    pass.check("the chain re-inserts whole", inserted + 1 == chain_blocks);
    let (cdf, sketch) = kernels::stats_ns();
    pass.set("stats.cdf.build_quantile_ns", cdf);
    pass.set("stats.sketch.insert_ns", sketch);
    ctx.tr.end(extras);
    pass
}

/// The `grid-mixed` grid at a given thread count and worker-reuse mode.
fn mixed_grid(seed: u64, threads: usize, reuse: bool) -> (Grid, usize) {
    let base = inputs::grid_base(seed);
    let scripts = inputs::dynamics_scripts(seed, base.ordinary_nodes, base.duration);
    let entries = scripts.iter().map(|(_, s)| s.entries().len()).sum();
    let dynamics: Vec<(String, AxisSetter)> = scripts
        .into_iter()
        .map(|(label, script)| {
            let setter: AxisSetter = Box::new(move |s: &mut Scenario| s.dynamics = script.clone());
            (label.to_owned(), setter)
        })
        .collect();
    let first_seed = base.seed;
    let grid = Grid::new(base)
        .seed_range(first_seed, GRID_SEEDS)
        .axis("tx_rate", [0.5, 1.0], |s, &rate| s.set_tx_rate(rate))
        .axis_with("dynamics", dynamics)
        .axis("consensus", ConsensusKind::ALL, |s, &kind| {
            s.consensus = kind
        })
        .threads(threads)
        .reuse_workers(reuse);
    (grid, entries)
}

fn render_grid(output: &(GridReport, GridReport)) -> String {
    let (headline, reorgs) = output;
    format!(
        "{}\n{}\n{}\n{}\n",
        headline.to_csv(),
        headline.to_json(),
        reorgs.to_csv(),
        reorgs.to_json()
    )
}

/// `grid-mixed`: many short campaigns on two reused workers, streamed
/// through the headline and reorg collectors into CSV and JSON tables.
fn grid_mixed(ctx: &mut Ctx) -> Pass {
    let mut pass = Pass::default();
    let s = ctx.tr.begin("core.scenario.build");
    let (grid, entries) = mixed_grid(ctx.seed, GRID_THREADS, true);
    ctx.tr.end(s);
    pass.setup_s = ctx.clock.now();
    let start = Instant::now();
    let s = ctx.tr.begin("core.grid.run");
    let outcome = grid.run((headline_scalars(), reorg_scalars()));
    ctx.tr.end(s);
    pass.run_s = start.elapsed().as_secs_f64();
    let s = ctx.tr.begin("core.report.render");
    let artifact = render_grid(&outcome.output);
    ctx.tr.end(s);
    pass.finish(ctx, "grid-mixed", &artifact);

    pass.units = outcome.events;
    pass.facts.events = outcome.events;
    pass.facts.fingerprint = fnv(&artifact);
    pass.check("every job of the grid ran", outcome.jobs == GRID_JOBS);
    pass.check(
        "one row per grid point",
        outcome.output.0.rows.len() == GRID_JOBS / GRID_SEEDS,
    );
    if !ctx.tr.enabled() {
        return pass;
    }

    let events = outcome.events as f64;
    pass.set("core.grid.jobs", outcome.jobs as f64);
    pass.set("core.grid.jobs_per_s", outcome.jobs as f64 / pass.run_s);
    pass.set("core.grid.threads_used", outcome.threads_used as f64);
    pass.set("net.messages", outcome.totals.messages as f64);
    pass.set("net.bytes", outcome.totals.bytes as f64);
    pass.set(
        "net.messages_per_event",
        outcome.totals.messages as f64 / events,
    );
    pass.set(
        "mining.blocks_produced",
        outcome.totals.blocks_produced as f64,
    );
    pass.set(
        "workload.txs_submitted",
        outcome.totals.txs_submitted as f64,
    );
    pass.set("dynamics.entries", entries as f64);

    let extras = ctx.tr.begin("trace.extras.grids");
    let timed = |threads: usize, reuse: bool| {
        let start = Instant::now();
        let out = mixed_grid(ctx.seed, threads, reuse)
            .0
            .run((headline_scalars(), reorg_scalars()));
        (start.elapsed().as_secs_f64(), render_grid(&out.output))
    };
    let (t1_s, t1_artifact) = timed(1, true);
    pass.set("core.grid.t1_s", t1_s);
    pass.set(
        "core.grid.parallel_efficiency",
        t1_s / (outcome.threads_used as f64 * pass.run_s),
    );
    pass.check(
        "threads(1) tables == threads(2) tables",
        t1_artifact == artifact,
    );
    let (fresh_s, fresh_artifact) = timed(GRID_THREADS, false);
    pass.set("core.grid.reuse_speedup", fresh_s / pass.run_s);
    pass.check(
        "fresh-worker tables == reused-worker tables",
        fresh_artifact == artifact,
    );

    // Cost of the scripted path: the base job under each script, four
    // seeds each, one after another on this thread.
    let base = inputs::grid_base(ctx.seed);
    for (label, script) in inputs::dynamics_scripts(ctx.seed, base.ordinary_nodes, base.duration) {
        let (mut ns, mut events) = (0u128, 0u64);
        for k in 0..4 {
            let mut scenario = base.clone();
            scenario.seed = base.seed + k;
            scenario.dynamics = script.clone();
            let start = Instant::now();
            events += run_campaign(&scenario).events;
            ns += start.elapsed().as_nanos();
        }
        pass.set(
            &format!("core.world.dynamics.{label}_ns_per_event"),
            ns as f64 / events as f64,
        );
    }
    pass.set("core.world.reset_s", world_reset_s(&base, u64::MAX));
    ctx.tr.end(extras);
    pass
}

/// `chain-only`: the month and whole-chain miner sequences and the
/// selfish-mining threshold grid. No world, no logs.
fn chain_only(ctx: &mut Ctx) -> Pass {
    let mut pass = Pass::default();
    let seed = inputs::derive(ctx.seed, "chain-only");
    pass.setup_s = ctx.clock.now();
    let s = ctx.tr.begin("core.chainonly.month");
    let month = experiments::fig7_month(seed);
    ctx.tr.end(s);
    let s = ctx.tr.begin("core.chainonly.whole_chain");
    let whole = experiments::security_whole_chain(seed);
    ctx.tr.end(s);
    let s = ctx.tr.begin("core.selfish.threshold");
    let selfish =
        experiments::selfish_threshold(&ALPHAS, &GAMMAS, seed, SELFISH_SEEDS, SELFISH_BLOCKS);
    ctx.tr.end(s);
    // Rendering the sequence reports evaluates the run-length theory
    // (`stats::runs`) over the whole chain: it is half the work here.
    let s = ctx.tr.begin("core.report.render");
    let artifact = format!("{month}\n\n{whole}\n\n{selfish}\n\n{}\n", selfish.to_json());
    ctx.tr.end(s);
    pass.finish(ctx, "chain-only", &artifact);
    pass.run_s = pass.wall_s - pass.setup_s;

    let sequence_blocks = month.total_blocks + whole.total_blocks;
    let race_blocks = (ALPHAS.len() * GAMMAS.len() * SELFISH_SEEDS) as u64 * SELFISH_BLOCKS;
    pass.units = sequence_blocks + race_blocks;
    pass.facts.fingerprint = fnv(&artifact);
    pass.check(
        "the month is the paper's 201,086 blocks",
        month.total_blocks == 201_086,
    );
    pass.check(
        "every cell of the threshold grid holds a gain",
        selfish.gain.len() == GAMMAS.len()
            && selfish.gain.iter().all(|row| {
                row.len() == ALPHAS.len() && row.iter().all(|g| g.is_finite() && *g > 0.0)
            }),
    );
    if ctx.tr.enabled() {
        let sequences_s =
            ctx.tr.total_s("core.chainonly.month") + ctx.tr.total_s("core.chainonly.whole_chain");
        pass.set(
            "core.chainonly.ns_per_block",
            sequences_s * 1e9 / sequence_blocks as f64,
        );
        pass.set(
            "core.selfish.ns_per_block",
            ctx.tr.total_s("core.selfish.threshold") * 1e9 / race_blocks as f64,
        );
    }
    pass
}

/// The `planet-cold` scenario run to a horizon by `run_campaign` on
/// `shards` shards: the sharded engine has no event budget, so its
/// comparison with the sequential engine is a pass of its own.
pub fn planet_sharded(ctx: &Ctx, shards: usize) -> Pass {
    let mut pass = Pass::default();
    let mut scenario = inputs::planet_scenario(ctx.seed);
    scenario.duration = SimDuration::from_secs(10);
    scenario.shards = shards;
    pass.setup_s = ctx.clock.now();
    let start = Instant::now();
    let outcome = run_campaign(&scenario);
    pass.run_s = start.elapsed().as_secs_f64();
    pass.wall_s = ctx.clock.now();
    pass.peak_rss_mib = peak_rss_mib();
    pass.units = outcome.events;
    pass.facts.events = outcome.events;
    pass.facts.fingerprint = outcome.campaign.fingerprint();
    pass
}
