//! End-to-end tests of the `fpcc` binary.

use std::path::PathBuf;
use std::process::Command;

fn fpcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpcc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpcc-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_file(dir: &std::path::Path) -> PathBuf {
    let values: Vec<f32> = (0..50_000).map(|i| (i as f32 * 1e-3).sin() * 7.0).collect();
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let path = dir.join("input.bin");
    std::fs::write(&path, bytes).expect("write sample");
    path
}

#[test]
fn compress_decompress_roundtrip() {
    let dir = temp_dir("roundtrip");
    let input = sample_file(&dir);
    let compressed = dir.join("out.fpc");
    let restored = dir.join("restored.bin");

    let status = fpcc()
        .args(["compress", "--algo", "spratio"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("run fpcc compress");
    assert!(status.success());
    assert!(compressed.exists());
    let original = std::fs::read(&input).expect("read input");
    let stream = std::fs::read(&compressed).expect("read stream");
    assert!(stream.len() < original.len(), "no compression achieved");

    let status = fpcc()
        .arg("decompress")
        .arg(&compressed)
        .arg(&restored)
        .status()
        .expect("run fpcc decompress");
    assert!(status.success());
    assert_eq!(std::fs::read(&restored).expect("read restored"), original);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cat_streams_decoded_bytes_and_ranges() {
    let dir = temp_dir("cat");
    let input = sample_file(&dir);
    let compressed = dir.join("out.fpc");
    assert!(fpcc()
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("compress")
        .success());
    let original = std::fs::read(&input).expect("read input");

    // Without --range, cat reproduces the whole input on stdout.
    let output = fpcc().arg("cat").arg(&compressed).output().expect("cat");
    assert!(output.status.success());
    assert_eq!(output.stdout, original);

    // A mid-file range (chunk-unaligned on both ends) is byte-identical
    // to the same slice of the original.
    let output = fpcc()
        .args(["cat", "--range", "65519:4242"])
        .arg(&compressed)
        .output()
        .expect("cat range");
    assert!(output.status.success());
    assert_eq!(output.stdout, &original[65_519..65_519 + 4_242]);

    // Asking past the end is a usage error (exit 2), as is a bad spec.
    let output = fpcc()
        .args(["cat", "--range", "200000:1"])
        .arg(&compressed)
        .output()
        .expect("cat oob");
    assert_eq!(output.status.code(), Some(2), "out-of-bounds range exits 2");
    assert!(String::from_utf8_lossy(&output.stderr).contains("exceeds"));
    let output = fpcc()
        .args(["cat", "--range", "12"])
        .arg(&compressed)
        .output()
        .expect("cat bad spec");
    assert_eq!(output.status.code(), Some(2), "malformed --range exits 2");

    // Garbage input is a corrupt stream (exit 4), same as decompress.
    let bogus = dir.join("bogus.fpc");
    std::fs::write(&bogus, b"not a container").expect("write");
    let output = fpcc()
        .args(["cat", "--range", "0:1"])
        .arg(&bogus)
        .output()
        .expect("cat garbage");
    assert_eq!(output.status.code(), Some(4), "corrupt streams exit 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cat_range_touches_only_the_chunks_it_needs() {
    let dir = temp_dir("catmetrics");
    let input = sample_file(&dir);
    let compressed = dir.join("out.fpc");
    assert!(fpcc()
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("compress")
        .success());
    // 200_000 bytes at the 16 KiB default chunk size is 13 chunks; one
    // byte from the middle must decode exactly one of them. The
    // container.range.* counters land in the --metrics json report on
    // stderr (only populated in metrics builds, hence the gate below).
    let output = fpcc()
        .args(["cat", "--range", "100000:1", "--metrics", "json"])
        .arg(&compressed)
        .output()
        .expect("cat range with metrics");
    assert!(output.status.success());
    assert_eq!(output.stdout.len(), 1);
    let report = String::from_utf8_lossy(&output.stderr);
    // Pulls a counter value out of the fpc-metrics-v1 JSON report
    // ({"name": N, "value": V} objects; zero-valued counters are omitted).
    fn counter(report: &str, name: &str) -> Option<u64> {
        let compact: String = report.chars().filter(|c| !c.is_whitespace()).collect();
        let tag = format!("\"name\":\"{name}\",\"value\":");
        let rest = &compact[compact.find(&tag)? + tag.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    }
    if counter(&report, "container.range.requests") != Some(1) {
        return; // metrics feature compiled out of this binary
    }
    assert_eq!(
        counter(&report, "container.range.chunks.touched"),
        Some(1),
        "single-byte range must decode a single chunk: {report}"
    );
    assert_eq!(
        counter(&report, "container.range.chunks.total"),
        Some(13),
        "expected a 13-chunk container: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_reports_algorithm() {
    let dir = temp_dir("info");
    let input = sample_file(&dir);
    let compressed = dir.join("out.fpc");
    assert!(fpcc()
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("compress")
        .success());
    let output = fpcc().arg("info").arg(&compressed).output().expect("info");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("SPspeed"), "{text}");
    assert!(text.contains("DIFFMS -> MPLG"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_algorithm_fails_cleanly() {
    let dir = temp_dir("badalgo");
    let input = sample_file(&dir);
    let out = dir.join("x.fpc");
    let output = fpcc()
        .args(["compress", "--algo", "bogus"])
        .arg(&input)
        .arg(&out)
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
    // The message must list the valid vocabulary so the fix is one
    // copy-paste away.
    for choice in ["spspeed", "spratio", "dpspeed", "dpratio", "auto"] {
        assert!(stderr.contains(choice), "missing '{choice}' in: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_compresses_mixed_data_and_info_shows_picks() {
    let dir = temp_dir("auto");
    // A mixed stream: smooth f32 section, recurring f64 section, noise.
    let mut bytes: Vec<u8> = (0..40_000u32)
        .flat_map(|i| ((i as f32 * 1e-3).sin() * 7.0).to_bits().to_le_bytes())
        .collect();
    bytes.extend((0..10_000u64).flat_map(|i| (((i % 128) as f64).sqrt()).to_bits().to_le_bytes()));
    let mut x = 0xDEAD_BEEF_u64;
    for _ in 0..5_000 {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x14057B7EF767814F);
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    let input = dir.join("mixed.bin");
    std::fs::write(&input, &bytes).expect("write input");
    let compressed = dir.join("mixed.fpc");
    let restored = dir.join("mixed.out");

    assert!(fpcc()
        .args(["compress", "--algo", "auto"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("compress auto")
        .success());
    assert!(fpcc()
        .arg("decompress")
        .arg(&compressed)
        .arg(&restored)
        .status()
        .expect("decompress")
        .success());
    assert_eq!(std::fs::read(&restored).expect("read restored"), bytes);

    let output = fpcc().arg("info").arg(&compressed).output().expect("info");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("AUTO"), "{text}");
    assert!(text.contains("codec picks:"), "{text}");

    // Ranged cat dispatches per chunk from the codec table.
    let output = fpcc()
        .args(["cat", "--range", "150000:20000"])
        .arg(&compressed)
        .output()
        .expect("cat range");
    assert!(output.status.success());
    assert_eq!(output.stdout, &bytes[150_000..170_000]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_is_io_error() {
    let dir = temp_dir("missing");
    let output = fpcc()
        .args(["compress", "--algo", "spratio"])
        .arg(dir.join("does-not-exist.bin"))
        .arg(dir.join("out.fpc"))
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(3), "I/O errors exit 3");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decompress_rejects_garbage() {
    let dir = temp_dir("garbage");
    let bogus = dir.join("bogus.fpc");
    std::fs::write(&bogus, b"this is not a stream").expect("write");
    let output = fpcc()
        .arg("decompress")
        .arg(&bogus)
        .arg(dir.join("out.bin"))
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(4), "corrupt streams exit 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anatomy_prints_stage_breakdown() {
    let dir = temp_dir("anatomy");
    let input = sample_file(&dir);
    let output = fpcc()
        .args(["anatomy", "--algo", "spratio"])
        .arg(&input)
        .output()
        .expect("run anatomy");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    for stage in ["DIFFMS", "BIT", "RZE"] {
        assert!(text.contains(stage), "missing {stage} in {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_args_prints_usage() {
    let output = fpcc().output().expect("run");
    assert_eq!(output.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

#[test]
fn outputs_are_written_atomically_with_no_temp_debris() {
    let dir = temp_dir("atomic");
    let input = sample_file(&dir);
    let compressed = dir.join("out.fpc");
    assert!(fpcc()
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&compressed)
        .status()
        .expect("compress")
        .success());
    assert!(compressed.exists());
    // The same-directory temp used for the atomic rename must be gone.
    let debris: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("fpcc-tmp"))
        .collect();
    assert!(debris.is_empty(), "temp files left behind: {debris:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fpc_faults_env_write_fault_fails_clean_without_partial_output() {
    if !fpc_faults::ENABLED {
        return; // hooks compiled out of the fpcc binary under test too
    }
    let dir = temp_dir("envfault");
    let input = sample_file(&dir);
    let out = dir.join("out.fpc");
    let output = fpcc()
        .env("FPC_FAULTS", "file-write=1:5")
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&out)
        .output()
        .expect("run");
    assert_eq!(
        output.status.code(),
        Some(3),
        "injected write fault exits 3"
    );
    assert!(!out.exists(), "no partial output may appear on failure");
    let debris: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("fpcc-tmp"))
        .collect();
    assert!(debris.is_empty(), "temp files left behind: {debris:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fpc_faults_env_chunk_damage_is_caught_by_verify() {
    if !fpc_faults::ENABLED {
        return;
    }
    let dir = temp_dir("envdamage");
    let input = sample_file(&dir);
    let out = dir.join("damaged.fpc");
    // Certainty-one bit-rot on every chunk body, injected after each
    // checksum is computed: compression itself succeeds...
    assert!(fpcc()
        .env("FPC_FAULTS", "chunk-damage=1:3")
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&out)
        .status()
        .expect("compress")
        .success());
    // ...and the unarmed verify audit must flag every chunk (exit 4).
    let output = fpcc().arg("verify").arg(&out).output().expect("verify");
    assert_eq!(output.status.code(), Some(4), "damage must exit 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_fpc_faults_env_is_ignored_with_a_warning() {
    let dir = temp_dir("envbad");
    let input = sample_file(&dir);
    let out = dir.join("out.fpc");
    let output = fpcc()
        .env("FPC_FAULTS", "not a valid spec")
        .args(["compress", "--algo", "spspeed"])
        .arg(&input)
        .arg(&out)
        .output()
        .expect("run");
    // A bad spec must never take the tool down — it is ignored (with a
    // warning when the hooks are compiled in).
    assert!(output.status.success(), "invalid spec must not break fpcc");
    assert!(out.exists());
    if fpc_faults::ENABLED {
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("FPC_FAULTS"),
            "expected a warning naming FPC_FAULTS"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_writes_datasets() {
    let dir = temp_dir("gen");
    let out = dir.join("sets");
    let status = fpcc()
        .args(["gen", "--precision", "dp", "--scale", "small", "--out"])
        .arg(&out)
        .status()
        .expect("run gen");
    assert!(status.success());
    let entries: Vec<_> = std::fs::read_dir(&out).expect("read dir").collect();
    assert!(entries.len() >= 10, "only {} dataset files", entries.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_rejects_unknown_flags_and_stray_arguments_without_writing() {
    for (tag, args) in [
        ("genhelp", &["gen", "--help"][..]),
        ("genstray", &["gen", "--precision", "sp", "extra"][..]),
        ("gennoval", &["gen", "--out"][..]),
    ] {
        let dir = temp_dir(tag);
        let output = fpcc()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run gen");
        assert_eq!(output.status.code(), Some(2), "{args:?} is a usage error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: fpcc gen"), "{args:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every subcommand rejects an unknown flag, a flag without its value and
/// a stray operand with exit 2 and its synopsis, before it reads, writes,
/// binds or connects anything.
#[test]
fn every_subcommand_rejects_bad_arguments_with_its_usage() {
    // Each subcommand with valid arguments (input files need not exist:
    // arguments are checked first), then one of its value flags.
    let commands: [(&[&str], &str); 15] = [
        (
            &["compress", "--algo", "spratio", "in.bin", "out.fpc"],
            "--threads",
        ),
        (&["decompress", "in.fpc", "out.bin"], "--threads"),
        (&["cat", "in.fpc"], "--range"),
        (&["info", "in.fpc"], "--metrics"),
        (&["verify", "in.fpc"], "--metrics"),
        (&["survey", "--width", "4", "in.bin"], "--threads"),
        (&["gen", "--out", "sets"], "--scale"),
        (&["anatomy", "--algo", "spratio", "in.bin"], "--algo"),
        (&["stats", "report.json"], "--metrics"),
        (&["serve", "--addr", "127.0.0.1:1"], "--cache-bytes"),
        (
            &[
                "remote", "compress", "--algo", "spspeed", "in.bin", "out.fpc",
            ],
            "--addr",
        ),
        (&["remote", "decompress", "in.fpc", "out.bin"], "--retries"),
        (&["remote", "verify", "in.fpc"], "--timeout-secs"),
        (
            &["remote", "range", "--range", "0:1", "in.fpc"],
            "--deadline-secs",
        ),
        (&["remote", "ping"], "--addr"),
    ];
    for (valid, flag) in commands {
        let name_len = if valid[0] == "remote" { 2 } else { 1 };
        let mut unknown = valid.to_vec();
        unknown.splice(name_len..name_len, ["--bogus", "1"]);
        let mut no_value = valid.to_vec();
        no_value.push(flag);
        let mut stray = valid.to_vec();
        stray.push("extra");
        for args in [unknown, no_value, stray] {
            let dir = temp_dir("badargs");
            let output = fpcc()
                .args(&args)
                .current_dir(&dir)
                .output()
                .expect("run fpcc");
            assert_eq!(output.status.code(), Some(2), "{args:?} is a usage error");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("usage: fpcc "), "{args:?}: {stderr}");
            for word in &valid[..name_len] {
                assert!(stderr.contains(word), "{args:?} names {word}: {stderr}");
            }
            let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
            assert!(written.is_empty(), "{args:?} wrote {written:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // Only `--` starts a flag: an operand with a single leading dash is a
    // file name, so a missing `-x.fpc` is an I/O error, not a usage error.
    let dir = temp_dir("dashop");
    let output = fpcc()
        .args(["info", "-x.fpc"])
        .current_dir(&dir)
        .output()
        .expect("run fpcc");
    assert_eq!(output.status.code(), Some(3), "-x.fpc is an operand");
    std::fs::remove_dir_all(&dir).ok();
}
