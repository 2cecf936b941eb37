//! Order statistics over measured samples, and host-process readings.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail of a latency sample: the highest percentile that still has
/// at least `beyond` samples strictly above it in rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it sits at, `100 * rank / n`.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Highest percentile of `xs` with at least `beyond` samples above it:
/// after sorting ascending, the sample at 1-based rank `n - beyond`.
/// `None` when there are not more than `beyond` samples, so no rank
/// qualifies.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - beyond;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// The reported tail of a latency sample: [`tail`] with `beyond`
/// samples beyond it while that percentile is at least the median,
/// otherwise (too few samples) the maximum.
pub fn tail_or_max(xs: &[f64], beyond: usize) -> Option<Tail> {
    tail(xs, beyond)
        .filter(|t| t.percentile >= 50.0)
        .or_else(|| tail(xs, 0))
}

/// Return freed heap pages to the OS and restart the kernel's peak-RSS
/// count, so the next reading of [`peak_rss_mib`] covers only what runs
/// from here on, not memory an earlier region freed but the allocator
/// kept.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases free
        // heap pages and is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets VmHWM to the current RSS (Linux 4.0+). Without it the
    // peak simply covers the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        // 1..=100: rank 90 is the value 90, and 91..=100 lie beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 10).expect("100 samples qualify");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, 10), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, 10).expect("one rank qualifies");
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_report_their_maximum() {
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail_or_max(&twelve, 10).expect("nonempty");
        assert_eq!((t.value, t.percentile, t.samples), (12.0, 100.0, 12));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail_or_max(&twenty, 10).expect("nonempty");
        assert_eq!((t.value, t.percentile), (10.0, 50.0));
        assert_eq!(tail_or_max(&[], 10), None);
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
    }
}
