//! Multi-axis campaign grids with streaming result collection.
//!
//! A [`Grid`] is the declarative form of "run this scenario under every
//! combination of these parameters, across these seeds": named axes over
//! scenario parameters (tx rate, inter-block time, pool directory, net
//! config, …) crossed with a seed axis, executed on parallel workers, and
//! reduced through a caller-chosen [`Metric`]. Memory is bounded by the
//! metric, not the grid — with streaming collectors a thousand-run grid
//! peaks at roughly one campaign's footprint per worker.
//!
//! # Determinism
//!
//! Each job runs an independent campaign (bit-identical to a sequential
//! [`run_campaign`] of the same materialized scenario), each job's metric
//! clone observes exactly one outcome, and the per-job instances fold in
//! grid order. Results are therefore identical across `threads(1)`,
//! `threads(N)`, and a sequential `run_campaign` loop — pinned by
//! `tests/sweep.rs`.
//!
//! # Example
//!
//! ```
//! use ethmeter_core::prelude::*;
//!
//! let base = Scenario::builder()
//!     .preset(Preset::Tiny)
//!     .duration(SimDuration::from_mins(2))
//!     .build();
//! let outcome = Grid::new(base)
//!     .seed_range(1, 2)
//!     .axis("interblock_s", [10.0, 20.0], |s, &secs| {
//!         s.interblock = SimDuration::from_secs_f64(secs);
//!     })
//!     .threads(2)
//!     .run(Scalars::new().column("head", |_, o| {
//!         o.campaign.truth.tree.head_number() as f64
//!     }));
//! assert_eq!(outcome.jobs, 4);
//! assert_eq!(outcome.output.rows.len(), 2); // one row per grid point
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::metric::{Metric, RunCtx};
use crate::par::panic_text;
use crate::runner::{run_campaign, CampaignRunner};
use crate::scenario::Scenario;
use crate::world::RunStats;

/// A boxed scenario transform: one [`Grid::axis_with`] point's setter.
pub type AxisSetter = Box<dyn Fn(&mut Scenario) + Send + Sync>;

/// One named axis: a list of `(value label, scenario setter)` points.
struct Axis {
    name: String,
    points: Vec<(String, AxisSetter)>,
}

/// The structured coordinates of one scenario-axis grid point: one
/// `(axis name, value label)` pair per declared axis, in axis order.
///
/// The seed is *not* part of the point — cross-seed aggregation groups by
/// point, so every seed of one configuration shares one `GridPoint`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GridPoint {
    coords: Vec<(String, String)>,
}

impl GridPoint {
    /// Builds a point from explicit `(axis, value)` coordinates.
    #[cfg(test)]
    pub(crate) fn from_coords<A, V, I>(coords: I) -> Self
    where
        A: Into<String>,
        V: Into<String>,
        I: IntoIterator<Item = (A, V)>,
    {
        GridPoint {
            coords: coords
                .into_iter()
                .map(|(a, v)| (a.into(), v.into()))
                .collect(),
        }
    }

    /// The `(axis, value)` coordinates, in axis declaration order.
    pub fn coords(&self) -> &[(String, String)] {
        &self.coords
    }

    /// The value label of one axis, if the axis exists.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.coords
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
    }

    /// True for the unique point of an axis-less grid.
    #[cfg(test)]
    pub(crate) fn is_base(&self) -> bool {
        self.coords.is_empty()
    }
}

impl fmt::Display for GridPoint {
    /// `axis=value,axis=value` (or `base` for the axis-less point).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coords.is_empty() {
            return write!(f, "base");
        }
        for (i, (axis, value)) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{axis}={value}")?;
        }
        Ok(())
    }
}

/// A multi-axis campaign grid. Built fluently from a base [`Scenario`];
/// [`Grid::run`] executes the full cartesian product and reduces it
/// through a [`Metric`].
pub struct Grid {
    base: Scenario,
    seeds: Vec<u64>,
    axes: Vec<Axis>,
    threads: usize,
    reuse_workers: bool,
}

impl Grid {
    /// Starts a grid over `base`. With no further configuration the grid
    /// runs the base scenario's own seed once.
    pub fn new(base: Scenario) -> Self {
        Grid {
            base,
            seeds: Vec::new(),
            axes: Vec::new(),
            threads: 0,
            reuse_workers: true,
        }
    }

    /// Sets the seed axis explicitly.
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the seed axis to `first, first+1, ..., first+count-1`.
    #[must_use]
    pub fn seed_range(self, first: u64, count: usize) -> Self {
        self.seeds((0..count as u64).map(|i| first + i))
    }

    /// Caps the worker threads. `0` (the default) means one worker per
    /// available CPU; the effective count never exceeds the job count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Controls per-worker world reuse (default `true`). With `true` each
    /// worker keeps one [`CampaignRunner`], whose world and engine are
    /// reset between jobs and keep their working allocations; each job's
    /// observer logs and transaction table move out with its outcome.
    /// With `false` every job constructs its world from scratch, exactly
    /// like calling [`run_campaign`] in a loop. Results are bit-identical
    /// either way.
    #[must_use]
    pub fn reuse_workers(mut self, reuse: bool) -> Self {
        self.reuse_workers = reuse;
        self
    }

    /// Declares a named scenario axis: each value in `values` becomes one
    /// point, labeled by its `Display` form, applied to the scenario by
    /// `setter`. Axes multiply (full cartesian product), with earlier
    /// axes varying slowest and the seed axis innermost.
    ///
    /// ```
    /// # use ethmeter_core::prelude::*;
    /// # let base = Scenario::builder().preset(Preset::Tiny).build();
    /// let grid = Grid::new(base)
    ///     .axis("tx_rate", [0.5, 1.0, 2.0], |s, &rate| s.set_tx_rate(rate));
    /// assert_eq!(grid.job_count(), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — an empty axis would silently reduce
    /// the whole cartesian product to zero jobs.
    #[must_use]
    pub fn axis<T, I, F>(self, name: impl Into<String>, values: I, setter: F) -> Self
    where
        T: fmt::Display + Send + Sync + 'static,
        I: IntoIterator<Item = T>,
        F: Fn(&mut Scenario, &T) + Send + Sync + 'static,
    {
        let setter = Arc::new(setter);
        let points = values
            .into_iter()
            .map(|value| {
                let label = value.to_string();
                let setter = Arc::clone(&setter);
                let f: AxisSetter = Box::new(move |s: &mut Scenario| setter(s, &value));
                (label, f)
            })
            .collect();
        self.push_axis(name.into(), points)
    }

    /// Declares an axis from pre-labeled `(label, transform)` points —
    /// the escape hatch for axes whose values aren't `Display`able (whole
    /// pool directories, net configs) or whose transforms differ per
    /// point (a "variant" axis of named scenario rewrites).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty (see [`Grid::axis`]).
    #[must_use]
    pub fn axis_with(self, name: impl Into<String>, points: Vec<(String, AxisSetter)>) -> Self {
        self.push_axis(name.into(), points)
    }

    fn push_axis(mut self, name: String, points: Vec<(String, AxisSetter)>) -> Self {
        assert!(
            !points.is_empty(),
            "grid axis '{name}' needs at least one value"
        );
        self.axes.push(Axis { name, points });
        self
    }

    /// The seeds the grid will run (the base scenario's own seed when no
    /// seed axis was declared).
    fn effective_seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![self.base.seed]
        } else {
            self.seeds.clone()
        }
    }

    /// The number of scenario-axis points (1 for an axis-less grid).
    pub fn point_count(&self) -> usize {
        // Axes are never empty (push_axis rejects that), so the product
        // is the exact cartesian size.
        self.axes.iter().map(|a| a.points.len()).product()
    }

    /// The number of campaigns [`Grid::run`] will execute.
    pub fn job_count(&self) -> usize {
        self.point_count() * self.seeds.len().max(1)
    }

    /// Materializes the structured tags of every grid point, in point
    /// order (earlier axes vary slowest).
    pub fn points(&self) -> Vec<GridPoint> {
        let mut out = Vec::with_capacity(self.point_count());
        for p in 0..self.point_count() {
            out.push(GridPoint {
                coords: self
                    .decompose(p)
                    .map(|(axis, i)| (axis.name.clone(), axis.points[i].0.clone()))
                    .collect(),
            });
        }
        out
    }

    /// Iterates `(axis, point index within axis)` for flat point index
    /// `p`, earlier axes varying slowest.
    fn decompose(&self, mut p: usize) -> impl Iterator<Item = (&Axis, usize)> {
        let mut indices = vec![0usize; self.axes.len()];
        for (slot, axis) in indices.iter_mut().zip(self.axes.iter()).rev() {
            let len = axis.points.len();
            *slot = p % len;
            p /= len;
        }
        self.axes.iter().zip(indices)
    }

    /// Builds the concrete scenario of one job.
    fn materialize(&self, point_index: usize, seed: u64) -> Scenario {
        let mut scenario = self.base.clone();
        for (axis, i) in self.decompose(point_index) {
            let (_, setter) = &axis.points[i];
            setter(&mut scenario);
        }
        scenario.seed = seed;
        scenario
    }

    /// Runs the whole grid, reducing every outcome through `metric`.
    ///
    /// Jobs are distributed over the workers by an atomic counter; the
    /// per-job metric instances (and stats totals) are folded in grid
    /// order afterwards, so the output is independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if any job panicked, *after* every worker has drained the
    /// job queue and exited cleanly — no hung siblings, no poisoned
    /// joins. The re-raised message carries each failed job's grid
    /// coordinates and seed, in grid order:
    /// `[tx_rate=2.0 seed=7] <original panic message>`.
    pub fn run<M: Metric + Clone>(&self, metric: M) -> GridOutcome<M::Output> {
        let seeds = self.effective_seeds();
        let points = self.points();
        let jobs = points.len() * seeds.len();
        let threads = self.effective_threads(jobs);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<(M, RunStats, u64)>> = (0..jobs).map(|_| None).collect();
        // `(job index, grid point, seed, panic message)` per failed job.
        let panics: Mutex<Vec<(usize, String, u64, String)>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            let seeds = &seeds;
            let points = &points;
            let next = &next;
            let panics = &panics;
            // Each worker owns a copy of the prototype to clone per job,
            // so `M` only needs `Send`, not `Sync`.
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let proto = metric.clone();
                    scope.spawn(move || {
                        // One reusable world+engine per worker thread (the
                        // CampaignRunner contract keeps outcomes identical
                        // to fresh construction).
                        let mut runner = self.reuse_workers.then(CampaignRunner::new);
                        let mut mine = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= jobs {
                                break;
                            }
                            let point_index = index / seeds.len();
                            let seed_index = index % seeds.len();
                            let seed = seeds[seed_index];
                            // A panicking job (world bug, metric bug, bad
                            // scenario point) must not take the worker —
                            // and with it every job it would have claimed —
                            // down with it: record it with its grid
                            // context and move on to the next job.
                            let job =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let scenario = self.materialize(point_index, seed);
                                    let outcome = match runner.as_mut() {
                                        Some(r) => r.run(&scenario),
                                        None => run_campaign(&scenario),
                                    };
                                    let mut m = proto.clone();
                                    let (stats, events) = (outcome.stats, outcome.events);
                                    // Owned handoff: each job observes exactly
                                    // once, so retaining collectors can move the
                                    // dataset instead of cloning it.
                                    m.observe_owned(
                                        &RunCtx {
                                            index,
                                            point_index,
                                            seed_index,
                                            seed: scenario.seed,
                                            point: &points[point_index],
                                            scenario: &scenario,
                                        },
                                        outcome,
                                    );
                                    (m, stats, events)
                                }));
                            match job {
                                Ok((m, stats, events)) => mine.push((index, m, stats, events)),
                                Err(payload) => {
                                    panics.lock().unwrap_or_else(|e| e.into_inner()).push((
                                        index,
                                        points[point_index].to_string(),
                                        seed,
                                        panic_text(payload),
                                    ));
                                    // The engine/world may have unwound
                                    // mid-event; rebuild rather than reuse
                                    // a possibly inconsistent instance.
                                    runner = self.reuse_workers.then(CampaignRunner::new);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            for handle in handles {
                // Workers catch job panics themselves, so joins cannot
                // fail; `expect` guards the invariant.
                for (i, m, stats, events) in handle.join().expect("grid workers catch job panics") {
                    slots[i] = Some((m, stats, events));
                }
            }
        });

        let mut failed = panics.into_inner().unwrap_or_else(|e| e.into_inner());
        if !failed.is_empty() {
            failed.sort_by_key(|&(index, ..)| index);
            let detail: Vec<String> = failed
                .iter()
                .map(|(_, point, seed, msg)| format!("[{point} seed={seed}] {msg}"))
                .collect();
            panic!(
                "{} of {jobs} grid jobs panicked: {}",
                failed.len(),
                detail.join("; ")
            );
        }

        // Deterministic reduction: fold per-job instances in grid order.
        let mut totals = RunStats::default();
        let mut events = 0u64;
        let mut acc: Option<M> = None;
        for slot in slots {
            let (m, stats, ev) = slot.expect("no job panicked, so every slot is filled");
            totals.merge(&stats);
            events += ev;
            match acc.as_mut() {
                Some(a) => a.merge(m),
                None => acc = Some(m),
            }
        }
        GridOutcome {
            output: acc.expect("grids have at least one job").finish(),
            totals,
            events,
            threads_used: threads,
            jobs,
        }
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        let auto = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cap = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        cap.clamp(1, jobs.max(1))
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("seeds", &self.seeds)
            .field("threads", &self.threads)
            .field(
                "axes",
                &self
                    .axes
                    .iter()
                    .map(|a| (a.name.clone(), a.points.len()))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

/// Everything a [`Grid::run`] produced.
#[derive(Debug)]
pub struct GridOutcome<T> {
    /// The finished metric output.
    pub output: T,
    /// Field-wise sum of every campaign's [`RunStats`].
    pub totals: RunStats,
    /// Total events processed across all campaigns.
    pub events: u64,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Campaigns executed.
    pub jobs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{RetainRuns, Scalars};
    use crate::scenario::Preset;
    use ethmeter_types::SimDuration;

    fn base() -> Scenario {
        Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(2))
            .build()
    }

    #[test]
    fn cartesian_product_in_point_major_seed_minor_order() {
        let grid = Grid::new(base())
            .seeds([1, 2])
            .axis("a", [10u64, 20], |_, _| {})
            .axis("b", ["x", "y"], |_, _| {});
        assert_eq!(grid.point_count(), 4);
        assert_eq!(grid.job_count(), 8);
        let labels: Vec<String> = grid.points().iter().map(|p| p.to_string()).collect();
        assert_eq!(labels, vec!["a=10,b=x", "a=10,b=y", "a=20,b=x", "a=20,b=y"]);
        let out = grid.threads(2).run(RetainRuns::new());
        assert_eq!(out.jobs, 8);
        let tags: Vec<(u64, String)> = out
            .output
            .iter()
            .map(|r| (r.seed, r.point.to_string()))
            .collect();
        assert_eq!(tags[0], (1, "a=10,b=x".to_owned()));
        assert_eq!(tags[1], (2, "a=10,b=x".to_owned()));
        assert_eq!(tags[7], (2, "a=20,b=y".to_owned()));
        // Retained runs arrive in grid order with their job index.
        assert!(out.output.iter().enumerate().all(|(i, r)| r.index == i));
    }

    #[test]
    fn axis_setters_shape_the_scenario() {
        // Pre-labeled points (`axis` lowers to the same machinery).
        let interblock = |secs: u64| -> AxisSetter {
            Box::new(move |s: &mut Scenario| s.interblock = SimDuration::from_secs(secs))
        };
        let out = Grid::new(base())
            .seeds([1, 2])
            .axis_with(
                "variant",
                vec![
                    ("fast-blocks".to_owned(), interblock(8)),
                    ("slow-blocks".to_owned(), interblock(20)),
                ],
            )
            .threads(2)
            .run(RetainRuns::new());
        // A labeled axis multiplies the grid variant-major.
        let labels: Vec<_> = out.output.iter().map(|r| r.point.get("variant")).collect();
        let (fast, slow) = (Some("fast-blocks"), Some("slow-blocks"));
        assert_eq!(labels, [fast, fast, slow, slow]);
        let head = |i: usize| out.output[i].outcome.campaign.truth.tree.head_number();
        // Faster blocks -> longer chain for the same seed and duration.
        assert!(head(0) > head(2), "{} vs {}", head(0), head(2));
    }

    #[test]
    fn axisless_grid_defaults_to_base_seed() {
        let scenario = base();
        let seed = scenario.seed;
        // The thread cap never exceeds the job count.
        let out = Grid::new(scenario).threads(16).run(RetainRuns::new());
        assert_eq!(out.jobs, 1);
        assert_eq!(out.output[0].seed, seed);
        assert!(out.output[0].point.is_base());
        assert_eq!(out.threads_used, 1);
    }

    #[test]
    #[should_panic(expected = "axis 'tx_rate' needs at least one value")]
    fn empty_axis_rejected_at_declaration() {
        let no_rates: Vec<f64> = Vec::new();
        let _ = Grid::new(base()).axis("tx_rate", no_rates, |_, _| {});
    }

    #[test]
    fn grid_point_lookup() {
        let grid = Grid::new(base()).axis("rate", [1.5], |_, _| {});
        let points = grid.points();
        assert_eq!(points[0].get("rate"), Some("1.5"));
        assert_eq!(points[0].get("nope"), None);
        assert_eq!(points[0].coords().len(), 1);
    }

    #[test]
    fn job_panic_propagates_with_point_and_seed_context() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_secs(30))
            .build();
        let result = std::panic::catch_unwind(|| {
            Grid::new(base)
                .seed_range(1, 3)
                .axis("interblock_s", [10.0], |s, &secs| {
                    s.interblock = SimDuration::from_secs_f64(secs);
                })
                .threads(2)
                .run(Scalars::new().column("boom", |ctx, _| {
                    assert!(ctx.seed != 2, "synthetic metric failure");
                    1.0
                }))
        });
        // The run terminates (workers drain the queue, no hung joins)
        // and the re-raised panic names the failing job.
        let msg = panic_text(result.expect_err("grid must re-raise the job panic"));
        assert!(msg.contains("1 of 3 grid jobs panicked"), "{msg}");
        assert!(msg.contains("[interblock_s=10 seed=2]"), "{msg}");
        assert!(msg.contains("synthetic metric failure"), "{msg}");
    }

    #[test]
    fn scalars_group_rows_per_point() {
        let out = Grid::new(base())
            .seeds([1, 2, 3])
            .axis("interblock_s", [10.0, 25.0], |s, &secs| {
                s.interblock = SimDuration::from_secs_f64(secs);
            })
            .threads(2)
            .run(Scalars::new().column("head", |_, o| o.campaign.truth.tree.head_number() as f64));
        let report = out.output;
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.cells[0].runs == 3));
        // Faster blocks -> higher mean head.
        assert!(report.rows[0].cells[0].mean > report.rows[1].cells[0].mean);
    }
}
