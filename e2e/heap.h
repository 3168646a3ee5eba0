// Live heap accounting for the benchmark binary. heap.cc replaces the
// global operator new/delete with versions that, inside a counting window,
// add and subtract the usable size of every block, so the benchmark can
// report peak heap bytes. Unlike peak RSS, which depends on how the
// allocator's free lists fragment across threads, the peak of live bytes
// repeats from run to run; it still shows work that moves into caches.
//
// Outside a window the replaced operators cost one relaxed load before
// malloc/free: counting every block costs the `train` workload's small
// tape allocations 6-16% of throughput, so the timed passes run outside
// it.
#ifndef GELC_E2E_HEAP_H_
#define GELC_E2E_HEAP_H_

#include <cstddef>

namespace gelc::e2e {

/// Opens a counting window with zero live bytes. Blocks allocated before
/// it and freed inside it count as negative, so open it when little is
/// freed but what the window allocates.
void StartHeapCount();

/// Closes the window; returns the most bytes live at once inside it.
size_t StopHeapCount();

}  // namespace gelc::e2e

#endif  // GELC_E2E_HEAP_H_
