//! A sweep worker runs cell after cell on one thread, and each cell's
//! packet arena grows on the blocks the previous cell's arena left
//! (`netsim::arena`'s per-thread spare). That must change no byte: a cell
//! run second, after a far larger cell or before a smaller one, records
//! exactly what it records on a fresh thread, which starts with no spare
//! as a fresh process does. Only the arena's allocations go away; the
//! exact pin on them (none at all once the spare is large enough) is
//! netsim's `tests/alloc.rs`.

use sweep::matrix::Cell;
use sweep::sink::jsonl_record;

#[global_allocator]
static COUNTER: tinybench::alloc::Counting = tinybench::alloc::Counting;

/// A 32-host cell with a cable cut (links flush their bands) and a
/// 10 240-host all-packet cell, whose arena is the largest the suite
/// builds.
const GRID: &str = "\
[reuse-small]
fabric   = 2t-k8-o1
lb       = REPS
workload = perm-262144B
failure  = cable1-at8us-perm
seed     = 3

[reuse-10k]
fabric   = 2t-custom-160x64-u32
lb       = REPS
workload = perm-16384B
deadline = 5000us
seed     = 3
";

fn cells() -> (Cell, Cell) {
    let matrices = sweep::specfile::parse(GRID).expect("grid parses");
    let mut cells = matrices.iter().flat_map(|m| m.expand());
    let small = cells.next().expect("small cell");
    let large = cells.next().expect("10k cell");
    assert!(cells.next().is_none());
    (small, large)
}

/// `cell`'s record and the allocations its run made, on a thread of its own.
fn on_fresh_thread(cell: &Cell) -> (String, u64) {
    let cell = cell.clone();
    std::thread::spawn(move || tinybench::alloc::measure(|| jsonl_record(&cell.run())))
        .join()
        .expect("cell thread")
}

#[test]
fn cells_run_back_to_back_match_fresh_runs() {
    let (small, large) = cells();
    let (small_fresh, small_fresh_allocs) = on_fresh_thread(&small);
    let (large_fresh, _) = on_fresh_thread(&large);
    let (first, first_allocs) = tinybench::alloc::measure(|| jsonl_record(&small.run()));
    let (second, second_allocs) = tinybench::alloc::measure(|| jsonl_record(&small.run()));
    let after_large = jsonl_record(&large.run());
    let after_both = jsonl_record(&small.run());
    assert_eq!(first, small_fresh);
    assert_eq!(
        first_allocs, small_fresh_allocs,
        "this thread started with no spare"
    );
    assert_eq!(second, small_fresh);
    assert_eq!(after_large, large_fresh);
    assert_eq!(after_both, small_fresh);
    assert!(
        second_allocs < first_allocs,
        "the second run regrew its arena: {second_allocs} allocations, {first_allocs} fresh"
    );
}
