//! Helpers shared by the fixture suites.

use uvm_sim::RunResult;
use uvm_types::PAGE_SIZE;

/// Asserts the driver's conservation laws on one simulated result:
///
/// - every migrated page is a far fault or a prefetch;
/// - every migrated page moves one 4 KB page host→device, and every
///   evicted page one 4 KB page device→host (whole-group write-back
///   writes clean pages too);
/// - a prefetched page is used or wasted at most once;
/// - a page is only thrashed after it was evicted, and only evicted
///   after it was migrated;
/// - 4 KB transfers are a subset of all read transfers.
///
/// `cell` names the run in the failure message.
pub fn assert_conservation_laws(r: &RunResult, cell: &str) {
    let page = PAGE_SIZE.bytes();
    assert_eq!(
        r.pages_migrated,
        r.far_faults + r.pages_prefetched,
        "{cell}: pages_migrated != far_faults + pages_prefetched"
    );
    assert_eq!(
        r.read_bytes.bytes(),
        page * r.pages_migrated,
        "{cell}: read_bytes != 4 KiB x pages_migrated"
    );
    assert_eq!(
        r.write_bytes.bytes(),
        page * r.pages_evicted,
        "{cell}: write_bytes != 4 KiB x pages_evicted"
    );
    assert!(
        r.prefetched_used + r.prefetched_wasted <= r.pages_prefetched,
        "{cell}: prefetched_used + prefetched_wasted > pages_prefetched"
    );
    assert!(
        r.pages_thrashed <= r.pages_evicted && r.pages_evicted <= r.pages_migrated,
        "{cell}: want pages_thrashed <= pages_evicted <= pages_migrated"
    );
    assert!(
        r.read_transfers_4k <= r.read_transfers,
        "{cell}: read_transfers_4k > read_transfers"
    );
}
