#ifndef RELACC_TESTS_TEMP_PATH_H_
#define RELACC_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace relacc::testing_fixture {

/// A scratch-file path under the gtest temp directory that no other test
/// process can collide with. CTest runs every TEST in a process of its
/// own, in parallel under `ctest -j`, so with a fixed file name one
/// test's cleanup deletes a file another test is still reading. The name
/// carries the process id and the running test (the suite alone inside
/// SetUpTestSuite), then `name`.
inline std::string TempPath(const std::string& name) {
  const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
  std::string test;
  if (const ::testing::TestInfo* info = unit->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  } else if (const ::testing::TestSuite* suite = unit->current_test_suite()) {
    test = suite->name();
  }
  for (char& c : test) {
    if (c == '/') c = '_';  // parameterized names: Suite/Test/0
  }
  return ::testing::TempDir() + "relacc_" + std::to_string(::getpid()) +
         "_" + test + "_" + name;
}

}  // namespace relacc::testing_fixture

#endif  // RELACC_TESTS_TEMP_PATH_H_
