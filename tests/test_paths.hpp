// Per-test scratch file paths.
//
// ctest runs every gtest case as its own process, so under `ctest -j` the
// cases of one fixture run at the same time. A fixture-wide fixed path
// makes them race on one file; unique_temp_path() derives the file name
// from the running test instead, so no two cases share a file.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace lbmib::test {

/// TempDir() + a name unique to the running test (suite, case and any
/// parameter suffix) + `extension`. Valid from the fixture constructor on.
inline std::string unique_temp_path(const std::string& extension) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "lbmib_" + name + extension;
}

}  // namespace lbmib::test
