//! The `hermes` command-line tool. See [`hermes_cli::usage`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{}", hermes_cli::usage());
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let options = match hermes_cli::parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = hermes_cli::run(&options, &mut std::io::stdout()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
