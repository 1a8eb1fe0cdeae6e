#include "util/sum_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dm::util {
namespace {

using Sums = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

Sums drained(SumTable& table) {
  Sums out;
  table.drain([&out](std::uint32_t key, std::uint64_t sum) {
    out.emplace_back(key, sum);
  });
  return out;
}

TEST(SumTable, SumsPerKeyInInsertionOrder) {
  SumTable table;
  table.add(7, 1);
  table.add(0, 2);  // key 0 is an ordinary key
  table.add(0xffffffffu, 3);
  table.add(7, 10);
  EXPECT_EQ(drained(table), (Sums{{7, 11}, {0, 2}, {0xffffffffu, 3}}));
  EXPECT_TRUE(drained(table).empty());
}

TEST(SumTable, MatchesAMapThroughGrowthAndReuse) {
  SumTable table;
  Rng rng(17);
  for (int batch = 0; batch < 4; ++batch) {
    // Batches of different sizes: the table grows, then drains and is
    // reused without leaking sums across batches.
    std::map<std::uint32_t, std::uint64_t> expected;
    std::vector<std::uint32_t> order;
    const int n = batch % 2 == 0 ? 5000 : 40;
    for (int i = 0; i < n; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.below(n / 2 + 1));
      const std::uint64_t value = rng.below(1000);
      if (!expected.contains(key)) order.push_back(key);
      expected[key] += value;
      table.add(key, value);
    }
    const Sums got = drained(table);
    ASSERT_EQ(got.size(), order.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].first, order[k]);
      EXPECT_EQ(got[k].second, expected[order[k]]);
    }
  }
}

}  // namespace
}  // namespace dm::util
