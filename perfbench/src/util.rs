//! Small helpers: order statistics, the golden table, the failure
//! ledger, and the host record.

use std::collections::HashMap;
use std::path::Path;

/// The median of `v` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..100) of `v`, with the number of
/// samples that lie strictly beyond it.
pub fn percentile(v: &[f64], p: f64) -> (f64, usize) {
    if v.is_empty() {
        return (0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let idx = rank.min(s.len()) - 1;
    (s[idx], s.len() - idx - 1)
}

/// Samples needed so that at least ten lie beyond the p99.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The committed golden fingerprint table (`label<TAB>hex`), read at
/// run time so a deliberate re-bless carries over without a rebuild.
pub struct Golden(HashMap<String, u64>);

impl Golden {
    /// Parse the table at `path`.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read golden table {}: {e}", path.display()))?;
        let mut rows = HashMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (label, hex) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed golden row {line:?}"))?;
            let fp = u64::from_str_radix(hex.trim(), 16)
                .map_err(|_| format!("malformed golden fingerprint in {line:?}"))?;
            rows.insert(label.to_string(), fp);
        }
        Ok(Golden(rows))
    }

    /// The golden fingerprint of `label`, if the table has that row.
    pub fn get(&self, label: &str) -> Option<u64> {
        self.0.get(label).copied()
    }
}

/// Counts every checked operation and the ones whose output was wrong.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Record one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Host seconds of one [`host_probe`] pass on the reference host (a
/// 2-vCPU virtual machine, median over quiet runs): every untraced
/// timing is scaled to this host speed.
pub const REF_PROBE_S: f64 = 0.000_7;

/// One pass of the probe kernel over `table`: host seconds.
fn probe_pass(table: &mut [u64], x: &mut u64) -> f64 {
    let mask = table.len() - 1;
    let t0 = std::time::Instant::now();
    for _ in 0..150_000 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = (*x as usize) & mask;
        table[i] = table[i].wrapping_mul(31).wrapping_add(*x);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// A fixed host-speed probe that runs none of the repository's code:
/// random read-modify-writes over a 2 MiB table, on every core the host
/// gives this process (at most two) at once, three passes each. Returns
/// the median pass time of the slowest core, in host seconds.
///
/// The host this benchmark runs on shares its cores with other
/// machines, and its speed drifts by tens of percent over seconds to
/// minutes. Timings are taken between probes and scaled by
/// `REF_PROBE_S / probe`, which cancels the drift but not a change in
/// the program (see `README.md`).
pub fn host_probe() -> f64 {
    let one = || {
        let mut table: Vec<u64> = (0..1u64 << 18).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let times: Vec<f64> = (0..3).map(|_| probe_pass(&mut table, &mut x)).collect();
        median(&times)
    };
    std::thread::scope(|s| {
        let others: Vec<_> = (1..host_cores().min(2)).map(|_| s.spawn(one)).collect();
        let mine = one();
        others
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(mine, f64::max)
    })
}

/// The factor that scales a host time taken between probes `a` and `b`
/// to the reference host's speed.
pub fn speed_factor(a: f64, b: f64) -> f64 {
    REF_PROBE_S / ((a + b) / 2.0)
}

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (0..P99_MIN_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 99.0), (989.0, 10));
        assert_eq!(percentile(&v, 50.0), (499.0, 500));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
