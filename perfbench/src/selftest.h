#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs the self-tests; prints each failure and returns how many failed.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
