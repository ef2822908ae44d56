//! Order statistics and the two `/proc` readings the benchmark reports.

/// The `q`-quantile (0..=1) of `values`, interpolated linearly between the
/// two closest ranks, so that on a short list it does not hang on a single
/// value; the slice is sorted in place. `values` must not be empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let at = q * (values.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(values.len() - 1);
    values[below] + (values[above] - values[below]) * (at - below as f64)
}

/// The median, averaging the two middle values of an even-sized sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Time this process's threads spent runnable but waiting for a
/// processor, in nanoseconds, summed over live threads
/// (`/proc/self/task/*/schedstat`). Solver workers are joined before a
/// request returns, so between requests only the main thread is left and
/// what ended workers waited is not seen: the figure is a lower bound.
pub fn runq_wait_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        let text = std::fs::read_to_string(path).ok()?;
        total += text.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    }
    Some(total)
}
