fn main() -> std::process::ExitCode {
    zkbench::cli::main()
}
