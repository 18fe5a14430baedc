//! The two command-line front ends judge occam source alike: `occamc`
//! fails (exit 1) exactly when `txlint --occam` reports an error
//! (exit 2), whichever compile phase refuses the program.

use std::process::Command;

/// Exit code of `binary` run with `args` on a file holding `source`.
fn exit_code(binary: &str, args: &[&str], name: &str, source: &str) -> i32 {
    let path = std::env::temp_dir().join(format!("cli-{}-{name}.occ", std::process::id()));
    std::fs::write(&path, source).expect("temp file is writable");
    let status = Command::new(binary)
        .args(args)
        .arg(&path)
        .output()
        .expect("the binary runs")
        .status;
    std::fs::remove_file(&path).expect("temp file is removable");
    status.code().expect("exited, not killed by a signal")
}

#[test]
fn occamc_fails_exactly_when_txlint_reports_an_error() {
    let max = "9223372036854775807";
    let cases = [
        (
            "clean",
            include_str!("../../../benchmark/workloads/corpus/fib.occ").to_string(),
            false,
        ),
        ("chan", "CHAN c[2147483648]:\nSKIP\n".into(), true),
        ("vars", format!("VAR a[{max}], b[{max}]:\nSKIP\n"), true),
        ("par", format!("PAR w = [{max} FOR 4]\n  SKIP\n"), true),
        ("wide", "VAR x:\nx := 4294967296\n".into(), true),
        ("shift", "DEF n = 1 << 70:\nSKIP\n".into(), true),
    ];
    for (name, source, fails) in cases {
        let occamc = exit_code(env!("CARGO_BIN_EXE_occamc"), &[], name, &source);
        let txlint = exit_code(env!("CARGO_BIN_EXE_txlint"), &["--occam"], name, &source);
        assert_eq!(
            occamc == 1,
            txlint == 2,
            "{name}: occamc {occamc}, txlint {txlint}"
        );
        assert_eq!(occamc == 1, fails, "{name}: occamc {occamc}");
        assert!(
            [0, 1].contains(&occamc) && [0, 1, 2].contains(&txlint),
            "{name}"
        );
    }
}
