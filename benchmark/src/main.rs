//! Entry point; see `cli`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        gryphon_benchmark::cli::parse_args(&argv).and_then(|a| gryphon_benchmark::cli::run(&a));
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("gryphon-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
