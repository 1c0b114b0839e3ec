//! The `pert-bench` binary: installs the counting allocator and hands
//! over to [`pertbench::cli`].

#[global_allocator]
static ALLOC: pertbench::alloc::Counting = pertbench::alloc::Counting;

fn main() {
    let entry = std::time::Instant::now();
    std::process::exit(pertbench::cli::main(entry));
}
