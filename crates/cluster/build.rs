//! Sets `cfg(unoptimized)` on builds at `opt-level = 0`. The testbed tests
//! slow their clock there, because inference runs far slower; debug
//! assertions alone (the `verify` profile) leave it at release speed.

fn main() {
    println!("cargo::rerun-if-changed=build.rs");
    println!("cargo::rustc-check-cfg=cfg(unoptimized)");
    if std::env::var("OPT_LEVEL").as_deref() == Ok("0") {
        println!("cargo::rustc-cfg=unoptimized");
    }
}
