//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace pb {

void runServePipelined(const RunArgs &A, Report &Rep);
void runServeChurn(const RunArgs &A, Report &Rep);
/// vm-oneshot when \p MultiShot is false, vm-multishot otherwise.
void runVm(const RunArgs &A, Report &Rep, bool MultiShot);

/// The core/control/vm/object counts both kinds of workload report:
/// counts are \p D divided by \p Scale (passes on vm-*, 1 on serve-*),
/// per-request values are \p D divided by \p Requests.
void commonCounts(Report &Rep, const osc::Stats::Snapshot &D, double Scale,
                  double Requests);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
