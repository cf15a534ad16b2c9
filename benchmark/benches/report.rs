//! `compare`: two result files against the bounds of `BENCHMARK.json`.
//! `check`: one result file against what `BENCHMARK.json` declares.

use crate::json::Value;

/// The `q` quantile of `values` as Python's `statistics.quantiles`
/// (exclusive method) places it, so spreads computed here and by the
/// driver agree. Fewer than two values have no spread: the value itself.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return f64::NAN,
        1 => return sorted[0],
        _ => {}
    }
    let at = q * (n + 1) as f64;
    let j = (at.floor() as usize).clamp(1, n - 1);
    let frac = (at - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - frac) + sorted[j] * frac
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / quantile(values, 0.5)
}

struct Declared<'a> {
    name: &'a str,
    unit: &'a str,
    higher: bool,
    bound: f64,
}

fn declared(manifest: &Value) -> Result<Vec<Declared<'_>>, String> {
    manifest
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?,
                unit: m.get("unit")?.as_str()?,
                higher: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

fn workload_names(manifest: &Value) -> Vec<&str> {
    manifest
        .get("workloads")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect()
}

fn samples(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let samples = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?;
    Some(samples.as_arr().iter().filter_map(Value::as_f64).collect())
}

/// `ok`: B's median is no worse than A's by more than the bound.
/// `unresolved`: the runs of either side spread wider than the bound, and
/// B's runs are not all better than all of A's. `regressed`: otherwise.
fn verdict(a: &[f64], b: &[f64], m: &Declared) -> (f64, &'static str) {
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let worse = if m.higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let b_always_better = if m.higher {
        b.iter().copied().fold(f64::INFINITY, f64::min) > a.iter().copied().fold(0.0, f64::max)
    } else {
        b.iter().copied().fold(0.0, f64::max) < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let status = if spread(a).max(spread(b)) > m.bound && !b_always_better {
        "unresolved"
    } else if worse > m.bound {
        "regressed"
    } else {
        "ok"
    };
    (worse, status)
}

/// Prints one line per workload and metric; `Ok(false)` when a metric
/// regressed or the exact facts of a workload differ.
pub fn compare(manifest: &Value, a: &Value, b: &Value) -> Result<bool, String> {
    let metrics = declared(manifest)?;
    let mut good = true;
    println!("workload metric unit median_a median_b worse_by bound verdict");
    for workload in workload_names(manifest) {
        for m in &metrics {
            let (Some(sa), Some(sb)) = (samples(a, workload, m.name), samples(b, workload, m.name))
            else {
                return Err(format!("{workload} {}: missing from a result file", m.name));
            };
            let (worse, status) = verdict(&sa, &sb, m);
            good &= status != "regressed";
            println!(
                "{workload} {} {} {:.6} {:.6} {:+.4} {} {status}",
                m.name,
                m.unit,
                quantile(&sa, 0.5),
                quantile(&sb, 0.5),
                worse,
                m.bound
            );
        }
        for fact in ["events", "fingerprint", "rows", "segments"] {
            let of = |r: &Value| r.get("workloads")?.get(workload)?.get(fact).cloned();
            let same = of(a).is_some() && of(a) == of(b);
            good &= same;
            println!(
                "{workload} {fact} {}",
                if same { "identical" } else { "differs" }
            );
        }
    }
    Ok(good)
}

/// Validates a result file: every declared workload carries every
/// declared end-to-end metric with its unit, and the declaration itself
/// stays within the contract's name and count limits.
pub fn check(manifest: &Value, results: &Value) -> Result<bool, String> {
    let metrics = declared(manifest)?;
    let workloads = workload_names(manifest);
    let layers = manifest.get("per_layer").map_or(&[][..], Value::as_arr);
    let mut problems = Vec::new();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    if workloads.len() > 8 || metrics.len() > 16 || layers.len() > 128 {
        problems.push("more than 8 workloads, 16 end-to-end or 128 layer metrics".to_owned());
    }
    let layer_names = layers.iter().filter_map(|m| m.get("name")?.as_str());
    for name in workloads
        .iter()
        .copied()
        .chain(metrics.iter().map(|m| m.name))
        .chain(layer_names)
    {
        if !name_ok(name) {
            problems.push(format!("name '{name}' is not [A-Za-z0-9_.-]+"));
        }
    }
    for workload in &workloads {
        let Some(entry) = results.get("workloads").and_then(|w| w.get(workload)) else {
            problems.push(format!("{workload}: missing"));
            continue;
        };
        for m in &metrics {
            let unit = entry
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|r| r.get("unit"))
                .and_then(Value::as_str);
            match unit {
                None => problems.push(format!("{workload} {}: missing", m.name)),
                Some(u) if u != m.unit => {
                    problems.push(format!(
                        "{workload} {}: unit {u}, declared {}",
                        m.name, m.unit
                    ));
                }
                Some(_) if samples(results, workload, m.name).is_none_or(|s| s.is_empty()) => {
                    problems.push(format!("{workload} {}: no samples", m.name));
                }
                Some(_) => {}
            }
        }
        if entry.get("failed").and_then(Value::as_f64) != Some(0.0) {
            problems.push(format!("{workload}: failed checks"));
        }
    }
    for p in &problems {
        println!("check: {p}");
    }
    if problems.is_empty() {
        println!(
            "check: {} workloads x {} end-to-end metrics present, {} layer metrics declared",
            workloads.len(),
            metrics.len(),
            layers.len()
        );
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quantile(&v, 0.25), 3.5);
        assert_eq!(quantile(&v, 0.5), 13.5);
        assert_eq!(quantile(&v, 0.75), 31.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[5.0], 0.25), 5.0);
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_spread_and_dominance() {
        let lower = Declared {
            name: "wall_s",
            unit: "s",
            higher: false,
            bound: 0.05,
        };
        let tight = [1.00, 1.01, 0.99, 1.00, 1.005];
        let slower = [1.10, 1.11, 1.09, 1.10, 1.105];
        assert_eq!(verdict(&tight, &tight, &lower).1, "ok");
        assert_eq!(verdict(&tight, &slower, &lower).1, "regressed");
        assert_eq!(verdict(&slower, &tight, &lower).1, "ok");
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(verdict(&tight, &noisy, &lower).1, "unresolved");
        // Wide, but every run beats every run of the other side.
        let fast_noisy = [0.5, 0.6, 0.7, 0.55, 0.65];
        assert_eq!(verdict(&tight, &fast_noisy, &lower).1, "ok");
        let higher = Declared {
            higher: true,
            ..lower
        };
        assert_eq!(verdict(&slower, &tight, &higher).1, "regressed");
        assert_eq!(verdict(&tight, &slower, &higher).1, "ok");
    }
}
