//! The plumbing every bench binary shares: the command line, the
//! thread-identity gate, failing loudly and writing the report.

use std::time::Instant;

/// Worker counts each harness runs its grid at unless `--threads` narrows
/// them to one.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A harness's parsed command line.
#[derive(Debug)]
pub struct HarnessArgs {
    /// `--smoke`: sweep the small CI grid and enforce its [`pins`](crate::pins).
    pub smoke: bool,
    /// `--out <path>`: where the JSON report is written.
    pub out: String,
    /// The worker counts to run: [`THREAD_COUNTS`], or the one
    /// `--threads <n>` value.
    pub threads: Vec<usize>,
}

impl HarnessArgs {
    /// The grid label reports carry: `"smoke"` or `"full"`.
    pub fn label(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Parses `--smoke`, `--out <path>` and, when `accepts_threads`, `--threads
/// <n>` from the process arguments; exits with status 2 and a usage line on
/// anything else.
pub fn parse_args(harness: &str, default_out: &str, accepts_threads: bool) -> HarnessArgs {
    let usage = |error: &str| -> ! {
        let threads = if accepts_threads { " [--threads <n>]" } else { "" };
        eprintln!("{error}\nusage: {harness} [--smoke]{threads} [--out <path>]");
        std::process::exit(2)
    };
    let mut parsed =
        HarnessArgs { smoke: false, out: default_out.to_string(), threads: THREAD_COUNTS.to_vec() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = args.next().unwrap_or_else(|| usage("--out requires a path")),
            "--threads" if accepts_threads => {
                let n = args.next().and_then(|n| n.parse().ok()).filter(|&n: &usize| n > 0);
                parsed.threads =
                    vec![n.unwrap_or_else(|| usage("--threads requires a positive worker count"))];
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    parsed
}

/// The determinism gate: calls `run` once per worker count in `threads`
/// (which must not be empty), each call returning a matrix and its
/// serialised JSON, and times each call.
///
/// Returns the first run's matrix with the wall time of every run, in
/// `threads` order — or, as the error, the first worker count whose JSON
/// differs from the first run's.
pub fn thread_identity<M>(
    threads: &[usize],
    mut run: impl FnMut(usize) -> (M, String),
) -> Result<(M, Vec<(usize, f64)>), usize> {
    let mut first: Option<(M, String)> = None;
    let mut walls = Vec::with_capacity(threads.len());
    for &n in threads {
        let start = Instant::now();
        let (matrix, json) = run(n);
        walls.push((n, start.elapsed().as_secs_f64()));
        match &first {
            Some((_, reference)) if *reference != json => return Err(n),
            Some(_) => {}
            None => first = Some((matrix, json)),
        }
    }
    let (matrix, _) = first.expect("the gate runs at least one worker count");
    Ok((matrix, walls))
}

/// Reports a failed gate as `<harness>: <msg>` and exits with status 1.
pub fn fail(harness: &str, msg: &str) -> ! {
    eprintln!("{harness}: {msg}");
    std::process::exit(1)
}

/// Fails unless a semantics checksum equals its [`pins`](crate::pins) value.
pub fn check_pin(harness: &str, field: &str, got: u64, pinned: u64) {
    if got != pinned {
        fail(
            harness,
            &format!(
            "{field} {got} != pinned {pinned}: the simulated semantics changed — if intentional, \
             update ironhide_bench::pins and the goldens together"
        ),
        );
    }
}

/// Fails unless a headline rate clears its [`pins`](crate::pins) floor.
pub fn check_floor(harness: &str, field: &str, rate: u64, floor: u64) {
    if rate < floor {
        fail(
            harness,
            &format!(
                "{field} {rate} fell below the floor {floor}: the measured path regressed \
             catastrophically"
            ),
        );
    }
}

/// Writes `report` to `path` (or fails) and echoes it to stdout.
pub fn write_report(harness: &str, path: &str, report: &str) {
    std::fs::write(path, report)
        .unwrap_or_else(|e| fail(harness, &format!("cannot write {path}: {e}")));
    eprintln!("{harness}: wrote {path}");
    println!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_diverging_worker_count_is_named() {
        let result = thread_identity(&THREAD_COUNTS, |n| ((), format!("{}", n >= 2)));
        assert_eq!(result.err(), Some(2));
    }

    #[test]
    fn identical_runs_return_the_first_matrix_and_walls_in_thread_order() {
        let mut calls = 0;
        let (matrix, walls) = thread_identity(&THREAD_COUNTS, |n| {
            calls += 1;
            (n, "same".to_string())
        })
        .expect("identical runs pass the gate");
        assert_eq!(matrix, 1);
        assert_eq!(calls, 3);
        assert_eq!(walls.iter().map(|(n, _)| *n).collect::<Vec<_>>(), THREAD_COUNTS);
        assert!(walls.iter().all(|(_, wall)| *wall >= 0.0));
    }
}
