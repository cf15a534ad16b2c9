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
//! Tuples of metrics are metrics: `(RetainRuns::new(), Analyze::new(...))`
//! computes both in one pass. [`PerPoint`] lifts any metric into a
//! per-grid-point family, which is how cross-seed aggregation per scenario
//! configuration is expressed.

use std::sync::Arc;

use ethmeter_analysis::Reduce;

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
// Analyze: lift any ethmeter-analysis reduction into a metric.

/// Adapts an [`ethmeter_analysis::Reduce`] accumulator into a [`Metric`].
///
/// ```
/// use ethmeter_core::metric::Analyze;
/// use ethmeter_core::analysis::propagation::Propagation;
///
/// let metric = Analyze::new(Propagation::new()); // Output: PropagationReport
/// # let _ = metric;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Analyze<R>(pub R);

impl<R> Analyze<R> {
    /// Wraps a configured (empty) reduction accumulator.
    pub fn new(reduce: R) -> Self {
        Analyze(reduce)
    }
}

impl<R: Reduce + Send> Metric for Analyze<R> {
    type Output = R::Report;

    fn observe(&mut self, _ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
        self.0.observe(&outcome.campaign);
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
    }

    fn finish(self) -> R::Report {
        self.0.finish()
    }
}

// ---------------------------------------------------------------------------
// PerPoint: per-grid-point metric families.

/// Runs an independent copy of `M` for every scenario-axis grid point,
/// yielding `(point, output)` pairs in point order — the building block
/// of "aggregate across seeds, split by configuration".
#[derive(Debug, Clone)]
pub struct PerPoint<M> {
    proto: M,
    /// `(point index, point, accumulated metric)`, ascending point index.
    slots: Vec<(usize, GridPoint, M)>,
}

impl<M: Clone> PerPoint<M> {
    /// Wraps the per-point prototype metric.
    pub fn new(proto: M) -> Self {
        PerPoint {
            proto,
            slots: Vec::new(),
        }
    }

    fn slot(&mut self, point_index: usize, point: &GridPoint) -> &mut M {
        let pos = match self.slots.binary_search_by_key(&point_index, |s| s.0) {
            Ok(pos) => pos,
            Err(pos) => {
                self.slots
                    .insert(pos, (point_index, point.clone(), self.proto.clone()));
                pos
            }
        };
        &mut self.slots[pos].2
    }
}

impl<M: Metric + Clone> Metric for PerPoint<M> {
    type Output = Vec<(GridPoint, M::Output)>;

    fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
        self.slot(ctx.point_index, ctx.point).observe(ctx, outcome);
    }

    fn merge(&mut self, other: Self) {
        for (idx, point, m) in other.slots {
            match self.slots.binary_search_by_key(&idx, |s| s.0) {
                Ok(pos) => self.slots[pos].2.merge(m),
                Err(pos) => self.slots.insert(pos, (idx, point, m)),
            }
        }
    }

    fn finish(self) -> Self::Output {
        self.slots
            .into_iter()
            .map(|(_, point, m)| (point, m.finish()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Scalars: named per-run scalar probes -> a cross-seed GridReport.

/// A named per-run scalar extraction.
type ProbeFn = Arc<dyn Fn(&RunCtx<'_>, &CampaignOutcome) -> f64 + Send + Sync>;

/// Extracts named scalar statistics from every run and aggregates them
/// across seeds per grid point, finishing into a
/// [`GridReport`](crate::report::GridReport).
///
/// This is the one-stop results-table metric: declare the columns once,
/// run the grid, and print/export mean ± stddev (plus the
/// percentile-of-percentiles spread) for every scenario configuration.
///
/// ```
/// use ethmeter_core::metric::Scalars;
///
/// let metric = Scalars::new()
///     .column("head_number", |_, o| o.campaign.truth.tree.head_number() as f64)
///     .column("events", |_, o| o.events as f64);
/// # let _ = metric;
/// ```
#[derive(Clone, Default)]
pub struct Scalars {
    columns: Vec<(String, ProbeFn)>,
    /// `(point index, point, per-column per-run values)`, ascending index.
    slots: Vec<(usize, GridPoint, Vec<Vec<f64>>)>,
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
    pub fn column<F>(mut self, name: impl Into<String>, probe: F) -> Self
    where
        F: Fn(&RunCtx<'_>, &CampaignOutcome) -> f64 + Send + Sync + 'static,
    {
        assert!(
            self.slots.is_empty(),
            "add columns before observing any runs"
        );
        self.columns.push((name.into(), Arc::new(probe)));
        self
    }

    /// Column names, in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(n, _)| n.clone()).collect()
    }
}

impl std::fmt::Debug for Scalars {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scalars")
            .field("columns", &self.column_names())
            .field("points_observed", &self.slots.len())
            .finish()
    }
}

impl Metric for Scalars {
    type Output = crate::report::GridReport;

    fn observe(&mut self, ctx: &RunCtx<'_>, outcome: &CampaignOutcome) {
        let values: Vec<Vec<f64>> = self
            .columns
            .iter()
            .map(|(_, probe)| vec![probe(ctx, outcome)])
            .collect();
        match self.slots.binary_search_by_key(&ctx.point_index, |s| s.0) {
            Ok(pos) => {
                for (col, v) in self.slots[pos].2.iter_mut().zip(values) {
                    col.extend(v);
                }
            }
            Err(pos) => self
                .slots
                .insert(pos, (ctx.point_index, ctx.point.clone(), values)),
        }
    }

    fn merge(&mut self, other: Self) {
        for (idx, point, values) in other.slots {
            match self.slots.binary_search_by_key(&idx, |s| s.0) {
                Ok(pos) => {
                    for (col, v) in self.slots[pos].2.iter_mut().zip(values) {
                        col.extend(v);
                    }
                }
                Err(pos) => self.slots.insert(pos, (idx, point, values)),
            }
        }
    }

    fn finish(self) -> crate::report::GridReport {
        crate::report::GridReport::from_samples(
            self.column_names(),
            self.slots
                .into_iter()
                .map(|(_, point, values)| (point, values))
                .collect(),
        )
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
