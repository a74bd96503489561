/// \file family_test.cpp
/// \brief The family registry: its order, exactly which selectors it
/// accepts, and that each entry renders the same text as the direct
/// compute + render composition.

#include "report/family.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"
#include "direct_render.hpp"

namespace nodebench::report {
namespace {

const std::vector<std::string> kNames = {"1", "2", "3", "4",     "5",    "6",
                                         "7", "8", "9", "sweep", "chase"};

TEST(FamilyRegistry, OrderIsPaperTablesThenSweepThenChase) {
  std::vector<std::string> names;
  for (const Family& family : families()) {
    names.emplace_back(family.name);
    EXPECT_EQ(family.paperTable, names.size() <= 9) << family.name;
  }
  EXPECT_EQ(names, kNames);
}

TEST(FamilyRegistry, FindAcceptsExactlyTheRegistryNames) {
  for (const std::string& name : kNames) {
    const Family* family = findFamily(name);
    ASSERT_NE(family, nullptr) << name;
    EXPECT_EQ(family->name, name);
  }
  for (const char* bad : {"4x", "", "10", "all", "0", "04", "Sweep"}) {
    EXPECT_EQ(findFamily(bad), nullptr) << bad;
  }
}

TEST(FamilyRegistry, SelectExpandsAllToThePaperTables) {
  const std::vector<const Family*> all = selectFamilies("all");
  ASSERT_EQ(all.size(), 9U);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->name, kNames[i]);
  }
  const std::vector<const Family*> chase = selectFamilies("chase");
  ASSERT_EQ(chase.size(), 1U);
  EXPECT_EQ(chase[0], findFamily("chase"));
}

TEST(FamilyRegistry, SelectRefusesUnknownSelectorsNamingTheValidOnes) {
  for (const char* bad : {"foo", "4x", "10", ""}) {
    try {
      (void)selectFamilies(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown table selector '" + std::string(bad) +
                    "' (valid: all, 1, 2, 3, 4, 5, 6, 7, 8, 9, sweep, chase)");
    }
  }
}

TEST(FamilyRegistry, EachRenderEqualsTheDirectComposition) {
  const std::vector<std::string> machines = {"Eagle", "Frontier", "Polaris"};
  TableOptions opt;
  opt.binaryRuns = 3;
  opt.machines = &machines;
  for (const Family& family : families()) {
    const std::string name(family.name);
    std::vector<CellIncident> incidents;
    const std::string text = family.render(opt, &incidents);
    EXPECT_FALSE(text.empty()) << name;
    EXPECT_EQ(text, directRenderText(name, opt)) << name;
    EXPECT_TRUE(incidents.empty()) << name;
  }
}

}  // namespace
}  // namespace nodebench::report
