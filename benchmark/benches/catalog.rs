//! Names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` declares the same lists; a test holds the two equal.

/// `(name, why)`; the names are fixed, later issues cite them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "small-e2e",
        "everyday repro run: Preset::Small campaign, suite, every table; gossip hot path is >99% of it, so an analysis-only change must not move it",
    ),
    (
        "planet-cold",
        "same code on 10k nodes, cold: working set far beyond the last-level cache, world build 3-8% of wall; the planet cliff shows here and not on small-e2e",
    ),
    (
        "dataset-month",
        "no simulation: spilled observation set recorded, scanned by the suite, exported, re-imported, fingerprinted; bypasses every gossip optimisation",
    ),
    (
        "grid-mixed",
        "many short campaigns on 2 threads over tx rate x dynamics x consensus: per-job reset, collector merge, report rendering, scripted gossip path",
    ),
    (
        "chain-only",
        "month and whole-chain miner sequences plus the selfish-mining alpha x gamma grid: no world, no logs; any gossip or measure change must not move it",
    ),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: true,
    }
}

/// What a user of the pipeline sees; reported by every workload. A
/// workload's unit of work is the simulated event (`small-e2e`,
/// `planet-cold`, `grid-mixed`), the observer row (`dataset-month`) or
/// the block (`chain-only`). `wall_ns_per_unit` is the whole pipeline,
/// process start to artifact written, per unit: for the four workloads
/// whose unit count is fixed it is `wall_s` over a constant, and for
/// `grid-mixed`, whose event count depends on the seed, it is what stays
/// comparable from seed to seed. `work_per_s` is the run phase alone.
pub const END_TO_END: [Metric; 4] = [
    lower("wall_ns_per_unit", "ns"),
    lower("setup_s", "s"),
    higher("work_per_s", "1/s"),
    lower("peak_rss_mib", "MiB"),
];

/// One traced pass per workload; 0 where a layer does no work.
pub const PER_LAYER: [Metric; 82] = [
    lower("core.scenario.build_s", "s"),
    lower("core.world.new_s", "s"),
    lower("core.world.initial_events_s", "s"),
    lower("core.world.initial_events", "count"),
    lower("core.world.into_campaign_s", "s"),
    lower("core.world.reset_s", "s"),
    lower("core.world.dynamics.static_ns_per_event", "ns"),
    lower("core.world.dynamics.churn_ns_per_event", "ns"),
    lower("core.world.dynamics.partition-flood_ns_per_event", "ns"),
    lower("sim.engine.run_s", "s"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.ns_per_event", "ns"),
    lower("sim.engine.slice_ns_per_event_p50", "ns"),
    lower("sim.engine.slice_ns_per_event_p95", "ns"),
    lower("sim.engine.pending_mean", "count"),
    lower("sim.engine.pending_max", "count"),
    lower("sim.engine.null_world_ns_per_event", "ns"),
    lower("sim.engine.unexplained_share", "share"),
    lower("sim.queue.push_pop_ns", "ns"),
    lower("sim.queue.est_share", "share"),
    lower("net.messages", "count"),
    lower("net.bytes", "bytes"),
    lower("net.messages_per_event", "ratio"),
    lower("net.known.insert_ns", "ns"),
    lower("net.known.contains_ns", "ns"),
    lower("net.headerview.insert_ns", "ns"),
    lower("net.headerview.est_share", "share"),
    lower("net.topology.build_s", "s"),
    lower("geo.latency.sample_ns", "ns"),
    lower("txpool.add_ns", "ns"),
    lower("txpool.pack_ns", "ns"),
    lower("mining.blocks_produced", "count"),
    lower("workload.txs_submitted", "count"),
    lower("dynamics.entries", "count"),
    lower("chain.tree.insert_ns", "ns"),
    lower("chain.tree.blocks", "count"),
    lower("measure.log.record_block_ns", "ns"),
    lower("measure.log.record_tx_ns", "ns"),
    lower("measure.spill.segments", "count"),
    lower("measure.spill.disk_bytes", "bytes"),
    lower("measure.log.peak_mem_bytes", "bytes"),
    lower("measure.scan.blocks_s", "s"),
    lower("measure.scan.txs_s", "s"),
    lower("measure.csv.export_s", "s"),
    lower("measure.csv.import_s", "s"),
    lower("measure.csv.bytes", "bytes"),
    lower("measure.fingerprint_s", "s"),
    lower("analysis.suite_s", "s"),
    lower("analysis.propagation_s", "s"),
    lower("analysis.redundancy_s", "s"),
    lower("analysis.first_observation_s", "s"),
    lower("analysis.commit_s", "s"),
    lower("analysis.empty_blocks_s", "s"),
    lower("analysis.forks_s", "s"),
    lower("analysis.sequences_s", "s"),
    lower("analysis.decentralization_s", "s"),
    lower("analysis.reorg_s", "s"),
    lower("analysis.rewards_s", "s"),
    lower("analysis.stat.prop_median_ms", "ms"),
    lower("analysis.stat.fork_rate", "share"),
    lower("analysis.stat.empty_fraction", "share"),
    lower("analysis.stat.commit12_median_s", "s"),
    lower("stats.cdf.build_quantile_ns", "ns"),
    lower("stats.sketch.insert_ns", "ns"),
    lower("core.grid.run_s", "s"),
    lower("core.grid.jobs", "count"),
    higher("core.grid.jobs_per_s", "1/s"),
    lower("core.grid.threads_used", "count"),
    lower("core.grid.t1_s", "s"),
    higher("core.grid.parallel_efficiency", "ratio"),
    higher("core.grid.reuse_speedup", "ratio"),
    lower("core.report.render_s", "s"),
    lower("core.report.bytes", "bytes"),
    lower("core.chainonly.month_s", "s"),
    lower("core.chainonly.whole_chain_s", "s"),
    lower("core.chainonly.ns_per_block", "ns"),
    lower("core.selfish.threshold_s", "s"),
    lower("core.selfish.ns_per_block", "ns"),
    lower("core.par.shard2_wall_s", "s"),
    higher("core.par.shard2_speedup", "ratio"),
    lower("core.par.shard2_peak_rss_mib", "MiB"),
    lower("trace.overhead_share", "share"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn listed(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| {
                let better = if m.higher { "higher" } else { "lower" };
                (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    /// The contract's limits on names, units and list lengths.
    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside benchmark/");
        assert!(text.len() <= 64 << 10);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(declared(&doc, "end_to_end"), listed(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), listed(&PER_LAYER));

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in doc.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
    }
}
