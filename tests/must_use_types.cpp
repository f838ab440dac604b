/// \file must_use_types.cpp
/// Compile-fail fixture for the must-use decision types (DESIGN.md §12).
/// tests/CMakeLists.txt compiles it with -fsyntax-only
/// -Werror=unused-result once per HTD_MUST_USE_CASE. Cases 1-3 each
/// discard one type returned by value from a function with no attribute
/// of its own, so only the type-level [[nodiscard]] can reject them.
/// Case 0 drops all three through (void) and must compile.

#include "pipeline/ingest.hpp"
#include "pipeline/pipeline.hpp"

htd::core::BoundaryStatus status_of() { return {}; }
htd::core::QuarantineSummary summary_of() { return {}; }
htd::core::IngestResult ingest_of() { return {}; }

void drop_must_use_values() {
#if HTD_MUST_USE_CASE == 1
    status_of();
#elif HTD_MUST_USE_CASE == 2
    summary_of();
#elif HTD_MUST_USE_CASE == 3
    ingest_of();
#else
    (void)status_of();
    (void)summary_of();
    (void)ingest_of();
#endif
}
