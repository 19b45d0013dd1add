//! End-to-end tests for the `cfp` command-line tool.

use std::process::Command;

fn cfp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfp"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cfp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_stats_mine_pipeline() {
    let data = temp_path("diag_plus.dat");
    let out = cfp()
        .args(["generate", "diag-plus", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cfp()
        .args(["stats", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("transactions:      60"), "{text}");
    assert!(text.contains("distinct items:    79"), "{text}");

    let out = cfp()
        .args([
            "mine",
            data.to_str().unwrap(),
            "--mincount",
            "20",
            "--k",
            "10",
            "--pool-len",
            "2",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The first (largest) line must be the size-39 colossal pattern with
    // support 20, labeled with the paper's integers 41..=79.
    let first = text.lines().next().expect("non-empty mining output");
    let fields: Vec<&str> = first.split('\t').collect();
    assert_eq!(fields[0], "39", "size column: {first}");
    assert_eq!(fields[1], "20", "support column: {first}");
    assert!(fields[2].starts_with("41 42 43"), "items column: {first}");
    assert!(fields[2].ends_with("78 79"), "items column: {first}");

    std::fs::remove_file(&data).ok();
}

#[test]
fn mine_respects_relative_minsup() {
    let data = temp_path("quest.dat");
    let out = cfp()
        .args([
            "generate",
            "quest",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cfp()
        .args([
            "mine",
            data.to_str().unwrap(),
            "--minsup",
            "0.02",
            "--k",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // 0.02 of 1000 transactions = support ≥ 20 on every output line.
    for line in text.lines() {
        let support: usize = line.split('\t').nth(1).unwrap().parse().unwrap();
        assert!(support >= 20, "{line}");
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = cfp().args(["mine"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing"));

    let out = cfp().args(["mine", "/nonexistent/x.dat"]).output().unwrap();
    assert!(!out.status.success());

    let out = cfp().args(["generate", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown kind"));

    let out = cfp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = cfp().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

/// Run `cfp` against a damaged slab and assert the typed [`SlabIoError`]
/// text reaches stderr with a non-zero exit — never a panic.
fn assert_slab_error(args: &[&str], expect: &str) {
    let out = cfp().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
    assert!(err.contains(expect), "{args:?}: stderr was: {err}");
    assert!(!err.contains("panic"), "{args:?}: panicked: {err}");
}

/// A sub-pool slab whose 96-byte header claims `u32::MAX` rows over a
/// `u32::MAX`-tid universe (2^61 tid bytes), streamed to
/// `shard-host --stdio` with nothing after it: the host must answer with
/// the typed slab error (exit 2), not size an allocation from the header.
#[test]
fn lying_slab_header_on_a_stream_fails_typed() {
    use cfp_core::net::{write_frame, NetRequest, FRAME_REQUEST, FRAME_SLAB_CHUNK};
    use std::io::Write;
    let rows = u64::from(u32::MAX);
    let mut header = Vec::new();
    cfp_itemset::slab_io::write_slab(&cfp_itemset::PatternPool::new(rows as usize), &mut header)
        .unwrap();
    header.truncate(96);
    let word = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().unwrap());
    let (wpr, ss) = (word(24), word(32));
    let claims = [
        (40, rows),
        (56, rows * wpr * 8),
        (64, rows * ss * 4),
        (72, (rows + 1) * 4),
        (88, rows * 4),
    ];
    for (off, v) in claims {
        header[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
    let req = NetRequest {
        shard: 0,
        shards: 1,
        attempt: 0,
        config: cfp_core::FusionConfig::new(4, 2).with_shards(1),
    };
    let mut input = Vec::new();
    write_frame(&mut input, FRAME_REQUEST, req.to_text().as_bytes()).unwrap();
    write_frame(&mut input, FRAME_SLAB_CHUNK, &header).unwrap();
    let mut child = cfp()
        .args(["shard-host", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr was: {err}");
    assert!(err.contains("input slab:"), "stderr was: {err}");
}

#[test]
fn damaged_slabs_fail_with_typed_errors() {
    let data = temp_path("slab_damage.dat");
    let good = temp_path("slab_damage_good.slab");
    let truncated = temp_path("slab_damage_truncated.slab");
    let corrupted = temp_path("slab_damage_corrupted.slab");

    let out = cfp()
        .args(["generate", "diag-plus", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cfp()
        .args([
            "dump",
            data.to_str().unwrap(),
            "--out",
            good.to_str().unwrap(),
            "--mincount",
            "20",
            "--pool-len",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Truncation: keep the first half of the image. Corruption: flip one
    // bit in the middle of the payload, leaving the length intact.
    let bytes = std::fs::read(&good).unwrap();
    assert!(bytes.len() > 64, "slab suspiciously small: {}", bytes.len());
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&corrupted, &flipped).unwrap();

    for (slab, expect) in [
        (&truncated, "slab image is truncated"),
        (&corrupted, "slab CRC mismatch"),
    ] {
        assert_slab_error(&["load", slab.to_str().unwrap()], expect);
        assert_slab_error(
            &[
                "mine",
                data.to_str().unwrap(),
                "--pool",
                slab.to_str().unwrap(),
                "--mincount",
                "20",
                "--k",
                "10",
                "--seed",
                "7",
            ],
            expect,
        );
    }

    // The undamaged slab still loads, proving the failures above came
    // from the damage and not the pipeline.
    let out = cfp()
        .args(["load", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for f in [&data, &good, &truncated, &corrupted] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn process_executor_output_matches_default_engine() {
    let data = temp_path("executor_equiv.dat");
    let out = cfp()
        .args(["generate", "diag-plus", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mine_args = [
        "mine",
        data.to_str().unwrap(),
        "--mincount",
        "20",
        "--k",
        "10",
        "--pool-len",
        "2",
        "--seed",
        "7",
    ];
    let base = cfp()
        .args(mine_args)
        .env("CFP_SHARDS", "4")
        .output()
        .unwrap();
    assert!(
        base.status.success(),
        "{}",
        String::from_utf8_lossy(&base.stderr)
    );
    for executor in ["process", "thread"] {
        let alt = cfp()
            .args(mine_args)
            .args(["--executor", executor])
            .env("CFP_SHARDS", "4")
            .output()
            .unwrap();
        assert!(
            alt.status.success(),
            "--executor {executor}: {}",
            String::from_utf8_lossy(&alt.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&base.stdout),
            String::from_utf8_lossy(&alt.stdout),
            "--executor {executor} drifted from the default engine"
        );
    }

    let out = cfp()
        .args(mine_args)
        .args(["--executor", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --executor"));

    std::fs::remove_file(&data).ok();
}

#[test]
fn malformed_shard_env_fails_before_mining() {
    let out = cfp()
        .args(["mine", "/nonexistent/never-read.dat"])
        .env("CFP_SHARDS", "fuor")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // The env error wins over the missing file: validation happens first.
    assert!(err.contains("invalid CFP_SHARDS='fuor'"), "{err}");

    let out = cfp()
        .args(["mine", "/nonexistent/never-read.dat"])
        .env("CFP_SHARD_STRATEGY", "banana")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid CFP_SHARD_STRATEGY='banana'"), "{err}");
}

#[test]
fn mine_stats_print_ball_counters() {
    let data = temp_path("diag40_stats.dat");
    let out = cfp()
        .args(["generate", "diag40", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // `--shards 1` keeps the run unsharded under any CFP_SHARDS, so the
    // per-iteration lines are there to read.
    let out = cfp()
        .args([
            "mine",
            data.to_str().unwrap(),
            "--mincount",
            "20",
            "--pool-len",
            "2",
            "--k",
            "8",
            "--shards",
            "1",
            "--stats",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let mut lines = err.lines().skip_while(|l| !l.starts_with("  iter 0:"));
    lines.next().expect("an iteration 0 line");
    let ball = lines.next().expect("a ball line after iteration 0");
    assert!(ball.starts_with("    ball: "), "{ball}");
    let counts: Vec<u64> = ball
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    // pairs, cardinality-pruned, pivot-pruned, exact, accepted, members.
    // Diag40's items and pairs have support 38–39 of 40 transactions, so
    // the cardinality bound proves every pair a member: no kernel runs.
    let [pairs, card, pivot, exact, accepted, members] = counts[..] else {
        panic!("unexpected ball line: {ball}");
    };
    assert!(pairs > 0, "{ball}");
    assert_eq!((card, pivot), (0, 0), "{ball}");
    assert_eq!((exact, accepted, members), (pairs, pairs, pairs), "{ball}");
    std::fs::remove_file(&data).ok();
}

#[test]
fn process_runs_report_their_wire_traffic() {
    let data = temp_path("diag40_wire.dat");
    let out = cfp()
        .args(["generate", "diag40", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let mine = [
        "mine",
        data.to_str().unwrap(),
        "--mincount",
        "20",
        "--pool-len",
        "2",
        "--k",
        "8",
        "--shards",
        "4",
        "--stats",
    ];
    let base = cfp().args(mine).output().unwrap();
    assert!(base.status.success());
    // A wire run writes no file, so a TMPDIR that cannot hold one (it sits
    // under a regular file) must not matter to either process run.
    let blocker = temp_path("wire_tmpdir_blocker");
    std::fs::write(&blocker, b"a regular file").unwrap();
    let tmpdir = blocker.join("tmp");
    let proc = cfp()
        .args(mine)
        .args(["--executor", "process"])
        .env("TMPDIR", &tmpdir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&proc.stderr);
    assert!(proc.status.success(), "{err}");
    assert_eq!(base.stdout, proc.stdout, "process run drifted");
    assert!(
        err.contains("net: 4 shard(s) dispatched in 4 attempt(s) (0 retried, 0 fell back"),
        "{err}"
    );

    // Shard 0's worker dies after reading its sub-pool (test builds compile
    // the fault hooks in); the fallback re-mines it in-process and the
    // `net:` line counts it.
    let faulted = cfp()
        .args(mine)
        .args(["--executor", "process"])
        .env("CFP_FAULT", "kill-worker:shard0")
        .env("CFP_EXECUTOR_FALLBACK", "1")
        .env("TMPDIR", &tmpdir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&faulted.stderr);
    assert!(faulted.status.success(), "{err}");
    assert_eq!(base.stdout, faulted.stdout, "fallback run drifted");
    let net = err.lines().find(|l| l.starts_with("  net: ")).unwrap_or("");
    assert!(net.contains("1 fell back"), "{err}");
    std::fs::remove_file(&blocker).ok();
    std::fs::remove_file(&data).ok();
}

#[test]
fn spill_flags_are_refused_outside_out_of_core_runs() {
    let data = temp_path("diag40_spill_flags.dat");
    let out = cfp()
        .args(["generate", "diag40", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let spill = temp_path("spill_flags_dir");
    std::fs::remove_dir_all(&spill).ok();
    let mine = [
        "mine",
        data.to_str().unwrap(),
        "--mincount",
        "20",
        "--pool-len",
        "2",
        "--k",
        "8",
        "--shards",
        "4",
    ];
    // Only the out-of-core backend spills: on an in-thread or process run
    // either flag would do nothing, so each is a usage error naming it.
    for executor in [&[][..], &["--executor", "process"][..]] {
        for (flag, args) in [
            ("--spill-dir", &["--spill-dir", spill.to_str().unwrap()][..]),
            ("--keep-spill", &["--keep-spill"][..]),
        ] {
            let out = cfp()
                .args(mine)
                .args(executor)
                .args(args)
                .env_remove("CFP_EXECUTOR")
                .env_remove("CFP_MEM_BUDGET")
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{executor:?} {flag}: {err}");
            assert!(err.contains(&format!("error: {flag} ")), "{err}");
            assert!(!spill.exists(), "{executor:?} {flag} created the spill dir");
        }
    }

    // An out-of-core run keeps its shard slabs there, and prints the
    // in-memory answer.
    let inm = cfp().args(mine).output().unwrap();
    assert!(inm.status.success());
    let oo = cfp()
        .args(mine)
        .args([
            "--mem-budget",
            "64k",
            "--spill-dir",
            spill.to_str().unwrap(),
        ])
        .arg("--keep-spill")
        .output()
        .unwrap();
    assert!(
        oo.status.success(),
        "{}",
        String::from_utf8_lossy(&oo.stderr)
    );
    assert_eq!(inm.stdout, oo.stdout, "out-of-core run drifted");
    let mut names: Vec<String> = std::fs::read_dir(&spill)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "shard-0.slab",
            "shard-1.slab",
            "shard-2.slab",
            "shard-3.slab"
        ]
    );
    std::fs::remove_dir_all(&spill).ok();
    std::fs::remove_file(&data).ok();
}
