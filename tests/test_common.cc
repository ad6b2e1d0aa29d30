/**
 * @file
 * Unit tests for the common utilities: error helpers, the inline
 * list, and the table / number formatting used by every bench harness.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "src/common/error.hh"
#include "src/common/inline_list.hh"
#include "src/common/table.hh"

namespace maestro
{
namespace
{

TEST(Errors, FatalIfThrowsOnlyWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    try {
        fatalIf(true, "boom 42");
        FAIL() << "expected Error";
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "boom 42");
    }
}

TEST(Errors, MsgConcatenatesStreamables)
{
    EXPECT_EQ(msg("a", 1, "-", 2.5), "a1-2.5");
}

TEST(InlineListDeathTest, HoldsItsCapacityAndPanicsPastIt)
{
    // A push or assign past the capacity must abort, never write past
    // the array.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    InlineList<int, 2> list;
    EXPECT_TRUE(list.empty());
    list.push_back(1);
    list.push_back(2);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list[1], 2);
    EXPECT_EQ(list.back(), 2);
    EXPECT_DEATH(list.push_back(3), "more than 2 elements");
    EXPECT_DEATH(list.assign(3, 0), "3 elements, more than 2");
    list.assign(1, 7);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], 7);
}

TEST(Table, AlignedRendering)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("longer  22"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvRendering)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowArityChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), Error);
    EXPECT_THROW(Table({}), Error);
}

TEST(Format, EngineeringSuffixes)
{
    EXPECT_EQ(engFormat(950.0), "950");
    EXPECT_EQ(engFormat(2.5e6), "2.50M");
    EXPECT_EQ(engFormat(3.0e9), "3.00G");
    EXPECT_EQ(engFormat(42.0), "42.00");
    EXPECT_EQ(engFormat(150.0e9), "150G");
}

TEST(Format, FixedDecimals)
{
    EXPECT_EQ(fixedFormat(3.14159, 2), "3.14");
    EXPECT_EQ(fixedFormat(2.0, 0), "2");
}

} // namespace
} // namespace maestro
