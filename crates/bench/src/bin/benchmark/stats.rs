//! Order statistics over wall-clock samples.

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an already sorted slice, linearly
/// interpolated between neighbours; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Median with its quartiles and sample count, as every wall-class metric is
/// reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub count: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        p25: quantile(&s, 0.25),
        p50: quantile(&s, 0.5),
        p75: quantile(&s, 0.75),
        count: s.len(),
    }
}
