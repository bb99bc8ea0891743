//! The `vitis-experiments` command line, driven through the built binary:
//! bad input is a usage error, the figures print what the committed
//! transcript says, and a sweep's run ids and points do not depend on the
//! number of worker threads.

use std::process::{Command, Output};

fn run(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vitis-experiments"));
    cmd.args(args);
    if let Some(n) = threads {
        cmd.env("RAYON_NUM_THREADS", n);
    }
    cmd.output().expect("run vitis-experiments")
}

/// Exit 2, nothing on stdout, and a message naming `token`.
fn assert_usage_error(args: &[&str], token: &str) {
    let out = run(args, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error:") && first.contains(token),
        "{args:?}: first line {first:?} does not name {token:?}"
    );
}

#[test]
fn an_unknown_figure_is_a_usage_error() {
    assert_usage_error(&["fig99", "--nodes", "100"], "fig99");
    assert_usage_error(&["fig", "fig6"], "fig");
}

#[test]
fn zero_nodes_is_a_usage_error_in_every_simulating_subcommand() {
    for sub in [&[][..], &["resilience"], &["topology"]] {
        let args = [sub, &["--nodes", "0"]].concat();
        assert_usage_error(&args, "\"0\"");
    }
    assert_usage_error(&["topology", "--system", "scribe"], "\"scribe\"");
    assert_usage_error(&["fig6", "--seed"], "--seed");
}

/// A slice of the committed figure transcript (fig4 fig6 fig7 fig10 and
/// the ablations at 100 nodes, seed 42): the job tables must print what
/// the committed golden holds, byte for byte.
#[test]
fn figure_slice_matches_the_committed_transcript() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/figures_slice_n100_seed42.txt"
    );
    let want = std::fs::read_to_string(golden).expect("read golden");
    let out = run(
        &[
            "fig4",
            "fig6",
            "fig7",
            "fig10",
            "ablations",
            "--nodes",
            "100",
        ],
        None,
    );
    assert!(out.status.success());
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        got == want,
        "stdout differs from {golden}; first differing line: {:?}",
        got.lines().zip(want.lines()).find(|(g, w)| g != w)
    );
}

/// The `"run"` ids of a `--metrics-out` file, in file order.
fn run_ids(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read metrics file");
    text.lines()
        .map(|l| {
            let rest = l.split_once("\"run\":\"").expect("a run id").1;
            rest.split_once('"').expect("closing quote").0.to_string()
        })
        .collect()
}

#[test]
fn sweep_ids_and_points_do_not_depend_on_the_thread_count() {
    let file =
        |n: &str| std::env::temp_dir().join(format!("cli_sweep_{}_{n}.jsonl", std::process::id()));
    let sweep = |n: &str| {
        let path = file(n);
        let out = run(
            &[
                "fig6",
                "--nodes",
                "100",
                "--metrics-out",
                path.to_str().unwrap(),
            ],
            Some(n),
        );
        assert!(out.status.success());
        let mut ids = run_ids(&path);
        std::fs::remove_file(&path).expect("remove metrics file");
        if n == "1" {
            // One worker finishes the jobs in table order.
            let index = |id: &String| id.rsplit_once('#').unwrap().1.parse::<usize>().unwrap();
            let indices: Vec<usize> = ids.iter().map(index).collect();
            assert_eq!(indices, (0..ids.len()).collect::<Vec<_>>());
        }
        ids.sort();
        (out.stdout, ids)
    };
    let (one, two) = (sweep("1"), sweep("2"));
    assert_eq!(one.1.len(), 20, "fig6 is a table of twenty jobs");
    assert_eq!(one.1, two.1, "run ids differ between 1 and 2 threads");
    assert_eq!(one.0, two.0, "figures differ between 1 and 2 threads");
}
