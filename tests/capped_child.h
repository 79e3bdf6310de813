// Runs a test body in a forked child whose address space is capped, so a
// decoder that allocates what a hostile header declares fails the test
// (std::bad_alloc aborts the child) instead of paging in gigabytes.

#ifndef SETSKETCH_TESTS_CAPPED_CHILD_H_
#define SETSKETCH_TESTS_CAPPED_CHILD_H_

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <functional>

#include <gtest/gtest.h>

namespace setsketch {

/// Runs `body` in a forked child capped at 1 GiB of address space (left
/// uncapped in sanitizer builds, whose shadow memory needs more) and
/// expects it to exit cleanly with no failed expectation.
inline void ExpectCleanInCappedChild(const std::function<void()>& body) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
#ifndef SETSKETCH_SANITIZE_BUILD
    const rlim_t cap = rlim_t{1} << 30;
    const rlimit limit{cap, cap};
    ::setrlimit(RLIMIT_AS, &limit);
#endif
    body();
    std::_Exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child wait status " << status;
}

}  // namespace setsketch

#endif  // SETSKETCH_TESTS_CAPPED_CHILD_H_
