//! Streaming, composable campaign metrics.
//!
//! The paper's claims are statistics *across* runs; a results API that
//! retains every run's full [`CampaignData`](ethmeter_measure::CampaignData)
//! bounds grid size by RAM instead of CPU. A [`Metric`] is the streaming
//! alternative: it sees each [`CampaignOutcome`] once, reduces it to a
//! compact summary, and merges with other instances — so a thousand-run
//! [`Grid`](crate::grid::Grid) runs at roughly the memory footprint of a
//! single campaign.
//!
//! Two metrics ship: [`Scalars`] runs any `ethmeter_analysis` report
//! inside a probe and keeps only the named per-run scalars it reads off,
//! aggregated per grid point into a [`GridReport`](crate::report::GridReport);
//! [`RetainRuns`] keeps every outcome whole.
//!
//! # Determinism contract
//!
//! [`Grid::run`](crate::grid::Grid::run) clones the caller's prototype
//! metric once per job, lets the clone observe exactly one outcome on
//! whatever worker thread executed the job, and then folds the per-job
//! instances together **in grid order** on the coordinating thread. The
//! observe/merge sequence is therefore a pure function of the grid — never
//! of thread count or scheduling — so every metric result (floating-point
//! accumulation included) is bit-identical from `threads(1)` to
//! `threads(N)`.
//!
//! # Composition
//!
//! Tuples of metrics are metrics: `(RetainRuns::new(), Scalars::new()...)`
//! computes both in one pass.

use std::sync::Arc;

use crate::grid::GridPoint;
use crate::runner::CampaignOutcome;
use crate::scenario::Scenario;

/// Everything a metric may know about the run it is observing, beyond the
/// outcome itself.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx<'a> {
    /// Job index in grid order (point-major, then seed).
    pub index: usize,
    /// Index of the scenario-axis grid point.
    pub point_index: usize,
    /// Index into the seed axis.
    pub seed_index: usize,
    /// The seed this run used.
    pub seed: u64,
    /// Structured coordinates of the scenario-axis grid point.
    pub point: &'a GridPoint,
    /// The fully materialized scenario the run executed.
    pub scenario: &'a Scenario,
}

/// A streaming collector of campaign outcomes.
///
/// Implementations must uphold the merge-order contract documented at the
/// [module level](self): `merge` is called on per-job instances in grid
/// order, and the result must depend only on that sequence.
pub trait Metric: Send {
    /// What [`Metric::finish`] produces.
    type Output;

    /// Observes one run's outcome. Reduce it now — the outcome is dropped
    /// when this returns (unless the metric itself retains it, as
    /// [`RetainRuns`] does).
    fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome);

    /// Observes an outcome the caller no longer needs. The grid calls
    /// this (each job observes exactly once), so retaining collectors
    /// can take ownership instead of deep-cloning the dataset —
    /// [`RetainRuns`] overrides it. The default delegates to
    /// [`Metric::observe`]; composite metrics (tuples) keep the default
    /// because ownership cannot be split between members.
    fn observe_owned(&mut self, ctx: &RunCtx<'_>, outcome: CampaignOutcome)
    where
        Self: Sized,
    {
        self.observe(ctx, &outcome);
    }

    /// Absorbs another instance of the same metric (cloned from the same
    /// prototype). `other`'s observations are from later grid positions
    /// than `self`'s.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

    /// Produces the final value once every run has been observed and
    /// merged.
    fn finish(self) -> Self::Output
    where
        Self: Sized;
}

// ---------------------------------------------------------------------------
// RetainRuns: the back-compat collector.

/// One run kept in full by [`RetainRuns`].
#[derive(Debug, Clone)]
pub struct RetainedRun {
    /// Job index in grid order.
    pub index: usize,
    /// The seed this run used.
    pub seed: u64,
    /// The scenario-axis coordinates of the run.
    pub point: GridPoint,
    /// The complete campaign result.
    pub outcome: CampaignOutcome,
}

/// Retains every [`CampaignOutcome`] in grid order, tagged with its seed
/// and grid point.
///
/// Memory grows linearly with the grid (each retained outcome holds the
/// observer logs and the full ground-truth tree), so prefer streaming
/// metrics for large grids; this collector exists for tests and tooling
/// that genuinely need every dataset.
#[derive(Debug, Default, Clone)]
pub struct RetainRuns {
    runs: Vec<RetainedRun>,
}

impl RetainRuns {
    /// A collector retaining nothing yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Metric for RetainRuns {
    type Output = Vec<RetainedRun>;

    fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
        self.observe_owned(ctx, outcome.clone());
    }

    /// Ownership fast path: a directly-retained outcome is moved in,
    /// never deep-cloned.
    fn observe_owned(&mut self, ctx: &RunCtx<'_>, outcome: CampaignOutcome) {
        self.runs.push(RetainedRun {
            index: ctx.index,
            seed: ctx.seed,
            point: ctx.point.clone(),
            outcome,
        });
    }

    fn merge(&mut self, other: Self) {
        self.runs.extend(other.runs);
    }

    fn finish(self) -> Vec<RetainedRun> {
        self.runs
    }
}

// ---------------------------------------------------------------------------
// Scalars: named per-run scalar probes -> a cross-seed GridReport.

/// One probe group: a per-run extraction yielding one value per named
/// column of its group.
type ProbeFn = Arc<dyn Fn(&RunCtx<'_>, &CampaignOutcome) -> Vec<f64> + Send + Sync>;

/// Extracts named scalar statistics from every run and aggregates them
/// across seeds per grid point, finishing into a
/// [`GridReport`](crate::report::GridReport).
///
/// This is the one-stop results-table metric: declare the columns once,
/// run the grid, and print/export mean ± stddev (plus the
/// percentile-of-percentiles spread) for every scenario configuration.
/// Columns that come from one analysis pass are declared together with
/// [`Scalars::columns`], so the pass runs once per run.
///
/// ```
/// use ethmeter_core::metric::Scalars;
///
/// let metric = Scalars::new()
///     .column("head_number", |_, o| o.campaign.truth.tree.head_number() as f64)
///     .columns(["events", "messages"], |_, o| {
///         vec![o.events as f64, o.stats.messages as f64]
///     });
/// # let _ = metric;
/// ```
#[derive(Clone, Default)]
pub struct Scalars {
    /// Column names, in declaration order.
    names: Vec<String>,
    /// `(column count, probe)` per group, in declaration order.
    groups: Vec<(usize, ProbeFn)>,
    /// `(point index, point, every column's value one run after another)`,
    /// ascending point index.
    points: Vec<(usize, GridPoint, Vec<f64>)>,
}

impl Scalars {
    /// A probe set with no columns yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named column extracted from every run.
    ///
    /// A probe returning a non-finite value (NaN/infinity) does not
    /// panic: the sample is excluded from that cell's aggregation and
    /// the cell's `runs` count reflects only finite values.
    #[must_use]
    pub fn column<F>(self, name: impl Into<String>, probe: F) -> Self
    where
        F: Fn(&RunCtx<'_>, &CampaignOutcome) -> f64 + Send + Sync + 'static,
    {
        self.columns([name], move |ctx, outcome| vec![probe(ctx, outcome)])
    }

    /// Adds a group of named columns extracted from every run by one
    /// probe call, which returns one value per name, in name order.
    /// Non-finite values are excluded as in [`Scalars::column`].
    ///
    /// # Panics
    ///
    /// The grid panics if the probe returns a different number of values.
    #[must_use]
    pub fn columns<N, F>(mut self, names: impl IntoIterator<Item = N>, probe: F) -> Self
    where
        N: Into<String>,
        F: Fn(&RunCtx<'_>, &CampaignOutcome) -> Vec<f64> + Send + Sync + 'static,
    {
        assert!(
            self.points.is_empty(),
            "add columns before observing any runs"
        );
        let before = self.names.len();
        self.names.extend(names.into_iter().map(Into::into));
        let width = self.names.len() - before;
        self.groups.push((width, Arc::new(probe)));
        self
    }
}

impl std::fmt::Debug for Scalars {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scalars")
            .field("columns", &self.names)
            .field("points_observed", &self.points.len())
            .finish()
    }
}

impl Metric for Scalars {
    type Output = crate::report::GridReport;

    fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
        let pos = match self.points.binary_search_by_key(&ctx.point_index, |p| p.0) {
            Ok(pos) => pos,
            Err(pos) => {
                self.points
                    .insert(pos, (ctx.point_index, ctx.point.clone(), Vec::new()));
                pos
            }
        };
        let values = &mut self.points[pos].2;
        for (width, probe) in &self.groups {
            let row = probe(ctx, outcome);
            assert_eq!(row.len(), *width, "a probe returns one value per column");
            values.extend(row);
        }
    }

    fn merge(&mut self, other: Self) {
        for (idx, point, values) in other.points {
            match self.points.binary_search_by_key(&idx, |p| p.0) {
                Ok(pos) => self.points[pos].2.extend(values),
                Err(pos) => self.points.insert(pos, (idx, point, values)),
            }
        }
    }

    fn finish(self) -> crate::report::GridReport {
        let points = self
            .points
            .into_iter()
            .map(|(_, point, values)| (point, values))
            .collect();
        crate::report::GridReport::from_samples(self.names, points)
    }
}

// ---------------------------------------------------------------------------
// Tuple composition.

macro_rules! tuple_metric {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Metric),+> Metric for ($($name,)+) {
            type Output = ($($name::Output,)+);

            fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
                $(self.$idx.observe(ctx, outcome);)+
            }

            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }

            fn finish(self) -> Self::Output {
                ($(self.$idx.finish(),)+)
            }
        }
    };
}

tuple_metric!(A: 0);
tuple_metric!(A: 0, B: 1);
tuple_metric!(A: 0, B: 1, C: 2);
tuple_metric!(A: 0, B: 1, C: 2, D: 3);
tuple_metric!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_metric!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use ethmeter_types::SimDuration;

    use super::*;
    use crate::grid::Grid;
    use crate::scenario::Preset;

    fn grid(threads: usize) -> Grid {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(1))
            .build();
        Grid::new(base)
            .seed_range(1, 2)
            .axis("interblock_s", [10.0, 25.0], |s, &secs| {
                s.interblock = SimDuration::from_secs_f64(secs);
            })
            .threads(threads)
    }

    fn head(o: &CampaignOutcome) -> f64 {
        o.campaign.truth.tree.head_number() as f64
    }

    #[test]
    fn a_column_group_probes_each_run_once() {
        let singles = grid(1)
            .run(
                Scalars::new()
                    .column("head", |_, o| head(o))
                    .column("events", |_, o| o.events as f64),
            )
            .output;
        for threads in [1, 4] {
            let calls = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&calls);
            let out = grid(threads).run(Scalars::new().columns(["head", "events"], move |_, o| {
                counter.fetch_add(1, Ordering::Relaxed);
                vec![head(o), o.events as f64]
            }));
            assert_eq!((out.jobs, out.threads_used), (4, threads));
            assert_eq!(calls.load(Ordering::Relaxed), 4, "threads({threads})");
            assert_eq!(out.output, singles, "threads({threads})");
        }
    }
}
