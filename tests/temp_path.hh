/**
 * @file
 * Test helper: a scratch file path unique to the running test.
 *
 * ctest runs every gtest case as its own process, and `ctest -j` runs
 * them concurrently, so a fixed path shared by two cases lets one
 * overwrite the other's file mid-test. tempPath() keys the path on
 * the gtest suite and test name plus the pid, under
 * ::testing::TempDir() (which honours TEST_TMPDIR).
 */

#ifndef DTSIM_TESTS_TEMP_PATH_HH
#define DTSIM_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace dtsim {
namespace test {

/** `<TempDir>dtsim_<Suite>.<Test>.<pid>.<tag>`; `tag` tells apart
 * several files of one test. */
inline std::string
tempPath(const std::string& tag)
{
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) +
                                  "." + info->name()
                            : std::string("no_test");
    // Parameterized suite and test names contain '/'.
    for (char& c : name)
        if (c == '/')
            c = '_';
    return ::testing::TempDir() + "dtsim_" + name + "." +
        std::to_string(::getpid()) + "." + tag;
}

} // namespace test
} // namespace dtsim

#endif // DTSIM_TESTS_TEMP_PATH_HH
