//! Records the build profile so every result can state what produced it.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    for var in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=PERFBENCH_{var}={value}");
    }
}
