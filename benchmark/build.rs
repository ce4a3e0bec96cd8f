//! Stamps the toolchain version and (when built inside a git checkout)
//! the commit into the binary, for the `host` line of every result.

use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.replace('"', "'"))
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only the repository's own git directory names the commit: a
    // checkout without one (or nested in another repository) is unknown.
    let commit = std::path::Path::new("../.git")
        .exists()
        .then(|| output("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    for git_file in ["../.git/HEAD", "../.git/index"] {
        if std::path::Path::new(git_file).exists() {
            println!("cargo:rerun-if-changed={git_file}");
        }
    }
}
