//! `experiment <name> [points…] [flags]`: run one entry of the
//! experiment table (see the `meshlayer_bench` crate docs).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    meshlayer_bench::experiment(&args).into()
}
