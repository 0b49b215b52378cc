use std::time::Instant;

fn main() {
    // Captured first: `setup_s` runs from here to the first timed
    // iteration.
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ivis_benchmark::cli::main(&args, process_start));
}
