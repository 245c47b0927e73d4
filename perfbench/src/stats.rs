//! Sample summaries, seed derivation and the output digest.

use lux_core::Widget;
use lux_core::WireWidget;

/// n, p10, p50 and p90 of one metric's samples within a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            p10: quantile(&s, 0.10),
            p50: quantile(&s, 0.50),
            p90: quantile(&s, 0.90),
        }
    }

    /// A single measured value (n = 1).
    pub fn single(v: f64) -> Summary {
        Summary {
            n: 1,
            p10: v,
            p50: v,
            p90: v,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"p10\": {}, \"p50\": {}, \"p90\": {}}}",
            self.n, self.p10, self.p50, self.p90
        )
    }
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// splitmix64 of `seed` mixed with `stream`: every generated input of a
/// run derives from the run seed through this, one stream per frame.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Canonical digest of a print: tab names, every vis spec with its score
/// rounded to 1e-6, and the health lines. Tabs are taken in the program's
/// order, ascending estimated cost, with equal-cost tabs ordered by name:
/// the ASYNC executor leaves ties in completion order, which varies from
/// run to run, as does the order of the health lines, which are sorted.
/// Timing fields, the table text and the governor note are left out.
pub fn widget_digest(w: &Widget) -> u64 {
    let mut tabs: Vec<_> = w.results().iter().collect();
    tabs.sort_by(|a, b| {
        a.estimated_cost
            .total_cmp(&b.estimated_cost)
            .then_with(|| a.action.cmp(&b.action))
    });
    let mut text = String::new();
    for r in tabs {
        text.push_str(&format!("tab {}\n", r.action));
        for v in r.visualizations() {
            text.push_str(&format!("  {} {:.6}\n", v.spec.cache_key(), v.score));
        }
    }
    let mut health: Vec<String> = w.health().iter().map(|h| h.to_string()).collect();
    health.sort();
    for h in health {
        text.push_str(&format!("health {h}\n"));
    }
    fnv1a(&text)
}

/// Canonical digest of a wire widget: the sorted tab names, the Lux view
/// with its note lines and its per-tab sections each sorted (the wire
/// form carries no cost to break ties by), and the sorted health problems.
pub fn wire_digest(w: &WireWidget) -> u64 {
    let mut tabs = w.tabs.clone();
    tabs.sort();
    let mut sections: Vec<String> = w
        .lux_view
        .split("\n=== ")
        .enumerate()
        .map(|(i, part)| {
            if i > 0 {
                return part.to_string();
            }
            // The notes before the first tab: diagnostics, health and
            // governor lines.
            let mut lines: Vec<&str> = part.lines().collect();
            lines.sort_unstable();
            lines.join("\n")
        })
        .collect();
    sections.sort();
    let mut health = w.health_problems.clone();
    health.sort();
    let text = format!(
        "tabs {}\n{}\nhealth {}\n",
        tabs.join(","),
        sections.join("\n=== "),
        health.join("\nhealth ")
    );
    fnv1a(&text)
}

/// Failed or disabled actions in a print (degraded ones are not failures).
pub fn failed_actions(w: &Widget) -> usize {
    w.health()
        .iter()
        .filter(|h| matches!(h.status.name(), "failed" | "disabled"))
        .count()
}

/// Structural check of a served print: not shed, and every tab's
/// visualizations ranked by descending finite score.
pub fn widget_ok(w: &Widget) -> bool {
    !w.was_shed()
        && w.results().iter().all(|r| {
            let scores: Vec<f64> = r.visualizations().iter().map(|v| v.score).collect();
            scores.iter().all(|s| s.is_finite()) && scores.windows(2).all(|p| p[0] >= p[1])
        })
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Busy and stolen jiffies of the whole machine (`/proc/stat`): a run's
/// steal share tells a slow host apart from a slow program.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let total = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    (total, steal)
}
