//! Grid report: a seeds × tx-rate × gateway-placement campaign grid,
//! streamed through scalar collectors into one aggregated results table.
//!
//! Every run is reduced to four scalars the moment it completes — the
//! full campaign datasets (observer logs + block trees) are dropped, so
//! the grid's memory footprint stays ~flat no matter how many runs it
//! has. The finished [`GridReport`] prints as a paper-style table and
//! exports as CSV/JSON.
//!
//! The `gateways` axis reproduces the paper's core geographic argument in
//! miniature: with the calibrated (mostly Asian) gateway placement the EA
//! vantage wins most first observations; centralizing every pool's
//! gateways in Western Europe hands those wins to the WE vantage.
//!
//! ```sh
//! cargo run --release --example grid_report
//! ```

use ethmeter::analysis::{first_observation, propagation};
use ethmeter::prelude::*;
use ethmeter::types::PoolId;

/// Moves every pool's gateways into one region.
fn centralize_gateways(s: &mut Scenario, region: Region) {
    let mut pools = s.pools.clone();
    for i in 0..pools.len() {
        pools.pool_mut(PoolId(i as u16)).gateway_regions = vec![(region, 1.0)];
    }
    s.pools = pools;
}

/// Shares of first-block observations won by each of `vantages` in this
/// run, from one Figure 2 pass.
fn first_obs_shares(data: &CampaignData, vantages: &[&str]) -> Vec<f64> {
    let geo = first_observation::geo(data);
    vantages
        .iter()
        .map(|vantage| {
            geo.per_vantage
                .iter()
                .find(|(name, ..)| name == vantage)
                .map_or(0.0, |&(_, share, _)| share)
        })
        .collect()
}

fn main() {
    let base = Scenario::builder()
        .preset(Preset::Tiny)
        .duration(SimDuration::from_mins(4))
        .build();

    let placements: Vec<(String, AxisSetter)> = vec![
        ("paper".to_owned(), Box::new(|_: &mut Scenario| {})),
        (
            "eu-centralized".to_owned(),
            Box::new(|s: &mut Scenario| centralize_gateways(s, Region::WesternEurope)),
        ),
    ];
    let grid = Grid::new(base)
        .seed_range(100, 4)
        .axis("tx_rate", [0.5, 1.0], |s, &rate| s.set_tx_rate(rate))
        .axis_with("gateways", placements);

    println!(
        "running a {}-campaign grid ({} points x 4 seeds) ...\n",
        grid.job_count(),
        grid.point_count()
    );

    let out = grid.run(
        Scalars::new()
            .column("head", |_, o| o.campaign.truth.tree.head_number() as f64)
            .column("prop_median_ms", |_, o| {
                let r = propagation::analyze(&o.campaign);
                if r.delays.is_empty() {
                    0.0
                } else {
                    r.delays.median()
                }
            })
            .columns(["ea_first_share", "we_first_share"], |_, o| {
                first_obs_shares(&o.campaign, &["EA", "WE"])
            }),
    );
    let report = out.output;

    println!(
        "{} campaigns on {} threads, {} events total\n",
        out.jobs, out.threads_used, out.events
    );
    println!("cross-seed table (mean ± sd over 4 seeds per row):\n{report}\n");
    println!("--- CSV ---\n{}", report.to_csv());
    println!("--- JSON ---\n{}", report.to_json());

    // The geographic claim, straight from the aggregated rows: moving
    // every gateway to Western Europe flips the first-observation winner.
    let share = |gateways: &str, col: &str| {
        let ci = report
            .columns
            .iter()
            .position(|c| c == col)
            .expect("column");
        report
            .rows
            .iter()
            .filter(|r| r.point.get("gateways") == Some(gateways))
            .map(|r| r.cells[ci].mean)
            .sum::<f64>()
            / 2.0 // two tx-rate points per placement
    };
    println!(
        "EA first-observation share: paper placement {:.0}%, EU-centralized {:.0}%",
        share("paper", "ea_first_share") * 100.0,
        share("eu-centralized", "ea_first_share") * 100.0,
    );
    println!(
        "WE first-observation share: paper placement {:.0}%, EU-centralized {:.0}%",
        share("paper", "we_first_share") * 100.0,
        share("eu-centralized", "we_first_share") * 100.0,
    );
    assert!(
        share("eu-centralized", "we_first_share") > share("paper", "we_first_share"),
        "centralizing gateways in the EU must boost the WE vantage"
    );
}
