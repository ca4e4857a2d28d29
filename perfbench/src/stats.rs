//! Percentiles from raw samples, span self time, and the ledger that
//! reconciles layer costs against the end-to-end mean.

use std::collections::BTreeMap;

/// A percentile is printed only when at least this many samples lie
/// beyond it, so a p99 needs 1000 samples and a p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`permille`/1000) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie above
/// the rank. Integer rank arithmetic, so 99% of 1000 is exactly rank
/// 990 with 10 samples beyond it.
pub fn percentile(sorted: &[f64], permille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || permille > 1000 {
        return None;
    }
    let rank = ((permille * n).div_ceil(1000)).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// One timed interval of the traced replay. Spans of one request share
/// `req`; `parent` indexes the enclosing span in the same buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Total self time per span name: each span's duration minus the part
/// of its interval that its children cover (overlapping children are
/// counted once, and child time outside the parent is ignored).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        let slot = out.entry(s.name).or_insert((0, 0));
        slot.0 += own;
        slot.1 += 1;
    }
    out
}

fn covered_ns(lo: u64, hi: u64, parts: &mut [(u64, u64)]) -> u64 {
    parts.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in parts.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// The reconciliation: the untraced end-to-end mean against the sum of
/// per-request layer self times. The residual is what no listed layer
/// explains (kernel socket work, scheduling, anything unmeasured).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub mean_us: f64,
    pub layers: Vec<(String, f64)>,
}

impl Ledger {
    pub fn covered_us(&self) -> f64 {
        self.layers.iter().map(|(_, us)| us).sum()
    }

    /// `(mean − Σ layers) / mean`, in percent.
    pub fn residual_pct(&self) -> f64 {
        if self.mean_us > 0.0 {
            100.0 * (self.mean_us - self.covered_us()) / self.mean_us
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 990), Some(990.0));
        assert_eq!(percentile(&s, 500), Some(500.0));
        assert_eq!(percentile(&s[..999], 990), None, "9 beyond rank 990 of 999");
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 500), Some(10.0));
        assert_eq!(percentile(&small[..19], 500), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn percentile_is_rank_based_not_interpolated() {
        let mut s = vec![5.0; 60];
        s.extend(vec![100.0; 40]);
        assert_eq!(percentile(&sorted(s), 500), Some(5.0));
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            Span {
                name: "tile",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "eval",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "encode",
                start_ns: 50,
                end_ns: 80,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "exp",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                req: 1,
            },
        ];
        let t = self_times(&spans);
        // tile: 100 − |[10,80]| = 30; eval: 50 − 10 = 40.
        assert_eq!(t["tile"], (30, 1));
        assert_eq!(t["eval"], (40, 1));
        assert_eq!(t["encode"], (30, 1));
        assert_eq!(t["exp"], (10, 1));
        let total: u64 = t.values().map(|v| v.0).sum();
        assert_eq!(total, 110, "self times add up to root + overlap");
    }

    #[test]
    fn ledger_residual_is_the_unexplained_share() {
        let l = Ledger {
            mean_us: 200.0,
            layers: vec![
                ("render".into(), 120.0),
                ("write".into(), 30.0),
                ("client".into(), 10.0),
            ],
        };
        assert_eq!(l.covered_us(), 160.0);
        assert!((l.residual_pct() - 20.0).abs() < 1e-12);
        let over = Ledger {
            mean_us: 100.0,
            layers: vec![("x".into(), 110.0)],
        };
        assert!((over.residual_pct() + 10.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
