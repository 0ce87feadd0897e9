//! The `xsfq-lint` command line: its exit codes and its `--json` line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A lint-clean design: `y = a & b`.
const CLEAN_BLIF: &str = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xsfq-lint-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn lint(args: &[&str], file: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xsfq-lint"))
        .args(args)
        .arg(file)
        .output()
        .expect("run xsfq-lint")
}

#[test]
fn json_line_escapes_the_file_name() {
    let dir = tmpdir("json");
    let file = dir.join("t\tab\"q.blif");
    fs::write(&file, CLEAN_BLIF).unwrap();
    let out = lint(&["--json"], &file);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let line = String::from_utf8(out.stdout).unwrap();
    let line = line.strip_suffix('\n').expect("one line");
    assert!(
        line.starts_with(r#"{"schema":"xsfq-lint/1","file":""#),
        "{line}"
    );
    assert!(line.ends_with(r#"t\tab\"q.blif","diags":[]}"#), "{line}");
    assert!(!line.chars().any(char::is_control), "raw control: {line:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exit_code_is_0_when_clean_and_2_when_missing() {
    let dir = tmpdir("exit");
    let file = dir.join("clean.blif");
    fs::write(&file, CLEAN_BLIF).unwrap();
    let clean = lint(&[], &file);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    assert!(String::from_utf8(clean.stdout)
        .unwrap()
        .ends_with(": clean\n"));
    let missing = lint(&[], &dir.join("missing.blif"));
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A netlist the reader rejects exits 2 with the parse error, not 101 from
/// a panic: here a `.names` block redefines a latch output.
#[test]
fn parse_error_exits_2_not_a_panic() {
    let dir = tmpdir("parse");
    let file = dir.join("latch.blif");
    fs::write(
        &file,
        ".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q\n1 1\n.names a d\n1 1\n.end\n",
    )
    .unwrap();
    let out = lint(&[], &file);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("line 5: signal 'q' is driven more than once"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}
