//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--preset tiny|small|medium|paper|planet] [--seed N]
//!       [--shards N] [--spill-dir DIR] [--budget BYTES] [--json]
//! repro --list
//! ```
//!
//! EXPERIMENT is `all` (the default) or one name from `repro --list`,
//! which prints the [`EXPERIMENTS`] table: the single place an experiment
//! is declared, driving the usage text, `--list`, `all` and dispatch.
//!
//! The preset scales the campaign for campaign-backed experiments and the
//! α × γ grid density for `selfish`. `--shards` runs the campaign on the
//! sharded parallel engine; `--spill-dir` + `--budget` bound the
//! measurement heap by spilling observer logs to on-disk segments under
//! DIR (bit-identical reports to the in-memory path). `--json` switches
//! the experiments that have a machine-readable form to it.

use std::process::ExitCode;

use ethmeter_core::experiments::{self, Suite};
use ethmeter_core::types::{PoolId, SimDuration};
use ethmeter_core::{analysis, run_campaign, Preset, Scenario};
use ethmeter_measure::CampaignData;

struct Args {
    experiment: String,
    list: bool,
    preset: Preset,
    seed: u64,
    shards: usize,
    spill_dir: Option<std::path::PathBuf>,
    budget: Option<usize>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = "all".to_owned();
    let mut preset = Preset::Small;
    let mut seed = 42u64;
    let mut shards = 1usize;
    let mut spill_dir = None;
    let mut budget = None;
    let mut json = false;
    let mut list = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--preset" => {
                let v = argv.next().ok_or("--preset needs a value")?;
                preset = match v.as_str() {
                    "tiny" => Preset::Tiny,
                    "small" => Preset::Small,
                    "medium" => Preset::Medium,
                    "paper" => Preset::PaperScaled,
                    "planet" => Preset::Planet,
                    other => return Err(format!("unknown preset '{other}'")),
                };
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--shards" => {
                let v = argv.next().ok_or("--shards needs a value")?;
                shards = v.parse().map_err(|_| format!("bad shard count '{v}'"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--spill-dir" => {
                let v = argv.next().ok_or("--spill-dir needs a value")?;
                spill_dir = Some(std::path::PathBuf::from(v));
            }
            "--budget" => {
                let v = argv.next().ok_or("--budget needs a value")?;
                let b: usize = v.parse().map_err(|_| format!("bad budget '{v}'"))?;
                if b == 0 {
                    return Err("--budget must be positive".into());
                }
                budget = Some(b);
            }
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') => experiment = other.to_owned(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if budget.is_some() && spill_dir.is_none() {
        return Err("--budget requires --spill-dir".into());
    }
    Ok(Args {
        experiment,
        list,
        preset,
        seed,
        shards,
        spill_dir,
        budget,
        json,
    })
}

/// The α × γ grid density per preset: smoke-sized for `tiny`, the full
/// Niu–Feng curve for larger presets.
fn selfish_report(preset: Preset, seed: u64) -> experiments::SelfishThresholdReport {
    let (alphas, gammas, seeds, blocks): (&[f64], &[f64], usize, u64) = match preset {
        Preset::Tiny => (&[0.15, 0.25, 0.35], &[0.0, 1.0], 1, 4_000),
        Preset::Small => (
            &[0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45],
            &[0.0, 0.5, 1.0],
            3,
            40_000,
        ),
        Preset::Medium | Preset::PaperScaled | Preset::Planet => (
            &[0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45],
            &[0.0, 0.25, 0.5, 0.75, 1.0],
            5,
            100_000,
        ),
    };
    experiments::selfish_threshold(alphas, gammas, seed, seeds, blocks)
}

/// The scenario `ablation` replays under each uncle policy: small enough
/// that three campaigns stay quick, large enough that forks occur.
fn ablation_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(10))
        .build()
}

fn run_suite(scenario: &Scenario) -> (CampaignData, Suite) {
    eprintln!(
        "running campaign: {} ordinary nodes, {} simulated, seed {} ...",
        scenario.ordinary_nodes, scenario.duration, scenario.seed
    );
    let outcome = run_campaign(scenario);
    eprintln!(
        "done: {} events, {} messages, {} blocks, {} txs",
        outcome.events,
        outcome.stats.messages,
        outcome.campaign.truth.tree.head_number(),
        outcome.stats.txs_submitted
    );
    let suite = Suite::from_campaign(&outcome.campaign);
    (outcome.campaign, suite)
}

/// How an experiment renders the document `repro NAME` prints.
enum Run {
    /// From the shared campaign and its suite (run once, also under
    /// `all`). Text documents end in a blank line of their own.
    Shared(fn(&Args, &CampaignData, &Suite) -> String),
    /// From the preset scenario (with `--seed`, `--shards` and the spill
    /// flags applied); the flag asks for the `--json` form.
    Own(fn(&Args, &Scenario, bool) -> String),
}

/// One row of the experiment table.
struct Experiment {
    name: &'static str,
    summary: &'static str,
    /// Part of `all`; the two scripted-campaign experiments are not.
    in_all: bool,
    run: Run,
}

/// The `--json` document when asked for, else the text one.
fn pick(json: bool, text: impl ToString, doc: impl FnOnce() -> String) -> String {
    if json {
        doc()
    } else {
        text.to_string()
    }
}

/// Every experiment, in `all` order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        summary: "measurement infrastructure",
        in_all: true,
        run: Run::Shared(|_, campaign, _| format!("{}\n", experiments::table1(campaign))),
    },
    Experiment {
        name: "fig1",
        summary: "block propagation delay PDF",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig1)),
    },
    Experiment {
        name: "table2",
        summary: "redundant block receptions",
        in_all: true,
        run: Run::Shared(|_, _, suite| match &suite.table2 {
            Ok(r) => format!("{r}\n"),
            Err(e) => format!("Table II unavailable: {e}\n"),
        }),
    },
    Experiment {
        name: "fig2",
        summary: "first observations per vantage",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig2)),
    },
    Experiment {
        name: "fig3",
        summary: "first observations per origin pool",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig3)),
    },
    Experiment {
        name: "fig4",
        summary: "inclusion + confirmation CDFs",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig4)),
    },
    Experiment {
        name: "fig5",
        summary: "in-order vs out-of-order commit delay",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig5)),
    },
    Experiment {
        name: "fig6",
        summary: "empty blocks per pool",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.fig6)),
    },
    Experiment {
        name: "table3",
        summary: "fork census + one-miner forks",
        in_all: true,
        run: Run::Shared(|_, _, suite| format!("{}\n", suite.table3)),
    },
    Experiment {
        name: "fig7",
        summary: "consecutive-block sequences (campaign + 201k-block month)",
        in_all: true,
        run: Run::Shared(|args, _, suite| {
            format!(
                "campaign-scale sequences:\n{}\n\n\
                 paper-scale month (201,086 blocks):\n{}\n",
                suite.fig7,
                experiments::fig7_month(args.seed)
            )
        }),
    },
    Experiment {
        name: "rewards",
        summary: "per-pool revenue share vs hash-power share",
        in_all: true,
        run: Run::Shared(|_, campaign, _| format!("{}\n", analysis::rewards::analyze(campaign))),
    },
    Experiment {
        name: "decentralization",
        summary: "Nakamoto / Gini / HHI over hash power, block production, \
                  first observation and revenue (--json: ethmeter-decentralization/v1)",
        in_all: true,
        run: Run::Shared(|args, _, suite| {
            let report = &suite.decentralization;
            pick(args.json, format!("{report}\n"), || report.to_json())
        }),
    },
    Experiment {
        name: "security",
        summary: "§III-D whole-chain sequence scan (7.7M blocks)",
        in_all: true,
        run: Run::Own(|args, _, _| experiments::security_whole_chain(args.seed).to_string()),
    },
    Experiment {
        name: "ablation",
        summary: "§V uncle-policy ablation",
        in_all: true,
        run: Run::Own(|args, _, _| {
            experiments::ablation_uncle_policy(&ablation_scenario(args.seed)).to_string()
        }),
    },
    Experiment {
        name: "selfish",
        summary: "selfish-mining profitability thresholds, α × γ grid \
                  (--json: ethmeter-selfish-threshold/v1)",
        in_all: true,
        run: Run::Own(|args, _, json| {
            let report = selfish_report(args.preset, args.seed);
            pick(json, &report, || report.to_json())
        }),
    },
    Experiment {
        name: "dynamics",
        summary: "eclipse-attack reorg-depth tail: a 30%-hash-power pool eclipsed for a \
                  quarter of the campaign, P(revert ≥ k) for k ∈ 1..=12 \
                  (--json: ethmeter-reorg/v1)",
        in_all: false,
        run: Run::Own(|_, scenario, json| {
            let mut base = scenario.clone();
            base.pools = experiments::victim_vs_rest_pools(0.3, 2);
            let start = base.duration.mul_f64(0.25);
            let window = base.duration.mul_f64(0.25);
            eprintln!(
                "eclipsing pool 0 (30% hash power) for {window} starting at t+{start}, \
                 seed {} ...",
                base.seed
            );
            let report = experiments::eclipse_reorg_report(&base, PoolId(0), start, window);
            pick(json, &report, || report.to_json())
        }),
    },
    Experiment {
        name: "forkchoice",
        summary: "the same campaign replayed under every consensus engine (heaviest, longest, \
                  uncle-weighted GHOST): head, reorg count, safe/finalized markers \
                  (--json: ethmeter-forkchoice/v1)",
        in_all: false,
        run: Run::Own(|args, scenario, json| {
            let label = match args.preset {
                Preset::Tiny => "tiny",
                Preset::Small => "small",
                Preset::Medium => "medium",
                Preset::PaperScaled => "paper",
                Preset::Planet => "planet",
            };
            let report = experiments::forkchoice_compare(scenario, label);
            pick(json, &report, || report.to_json())
        }),
    },
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro [EXPERIMENT] [--preset tiny|small|medium|paper|planet] [--seed N] \
         [--shards N] [--spill-dir DIR] [--budget BYTES] [--json]\n\
         \x20      repro --list\n\
         EXPERIMENT: all (default), {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for e in EXPERIMENTS {
            println!("{:<17} {}", e.name, e.summary);
        }
        return ExitCode::SUCCESS;
    }
    let all = args.experiment == "all";
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| (all && e.in_all) || e.name == args.experiment)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{}'", args.experiment);
        return ExitCode::FAILURE;
    }
    let mut scenario = Scenario::builder()
        .preset(args.preset)
        .seed(args.seed)
        .build();
    scenario.shards = args.shards;
    if let Some(dir) = &args.spill_dir {
        scenario.spill_dir = Some(dir.clone());
        if let Some(budget) = args.budget {
            scenario.measure_budget_bytes = budget;
        }
    }
    // The shared campaign runs once, before the first document that reads it.
    let mut shared = None;
    // Under `all`, a blank line separates the documents; the
    // campaign-backed ones already end in one.
    let mut separate = false;
    for e in selected {
        if separate {
            println!();
        }
        let document = match &e.run {
            Run::Shared(run) => {
                let (campaign, suite) = shared.get_or_insert_with(|| run_suite(&scenario));
                run(&args, campaign, suite)
            }
            // `all` has only ever honoured `--json` for the
            // shared-campaign documents.
            Run::Own(run) => run(&args, &scenario, args.json && !all),
        };
        println!("{document}");
        separate = matches!(e.run, Run::Own(_));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_scenario_is_small() {
        let s = ablation_scenario(1);
        assert!(s.ordinary_nodes <= 100);
        assert_eq!(s.duration, SimDuration::from_mins(10));
    }

    #[test]
    fn experiment_names_are_unique_and_all_is_reserved() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.name, "all");
            assert!(
                EXPERIMENTS[..i].iter().all(|p| p.name != e.name),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn experiments_md_lists_every_experiment() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let section = doc
            .split("\n## Experiment list\n")
            .nth(1)
            .expect("EXPERIMENTS.md has an `## Experiment list` section");
        let section = section.split("\n## ").next().expect("section body");
        let listed: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|cell| cell.split('`').next())
            .collect();
        let expected: Vec<&str> = std::iter::once("all")
            .chain(EXPERIMENTS.iter().map(|e| e.name))
            .collect();
        assert_eq!(listed, expected);
    }
}
