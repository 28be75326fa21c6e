// The SymbolTable behind the pipeline's memory layout (interned
// element/attribute names -> dense uint32 ids).
//
// The properties pinned here are the ones the engine's determinism
// guarantees rest on:
//   * symbol ids depend only on the Intern() call sequence, never on
//     which thread runs it,
//   * copying a table rebuilds its string_view index over the copied
//     strings (regression: the defaulted copy kept views into the
//     source's storage, so lookups on the copy dangled).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/symbol_table.h"

namespace {

using namespace xic;

// -- SymbolTable ---------------------------------------------------------

TEST(SymbolTable, InternAssignsDenseIdsInFirstInternOrder) {
  SymbolTable table;
  EXPECT_EQ(table.Intern("catalog"), 0u);
  EXPECT_EQ(table.Intern("book"), 1u);
  EXPECT_EQ(table.Intern("catalog"), 0u);  // repeat: same id
  EXPECT_EQ(table.Intern("isbn"), 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.name(0), "catalog");
  EXPECT_EQ(table.name(1), "book");
  EXPECT_EQ(table.name(2), "isbn");
}

TEST(SymbolTable, FindNeverInterns) {
  SymbolTable table;
  table.Intern("present");
  EXPECT_EQ(table.Find("present"), 0u);
  EXPECT_EQ(table.Find("absent"), kInvalidSymbol);
  EXPECT_EQ(table.size(), 1u);  // Find("absent") must not have interned
}

TEST(SymbolTable, NameReferencesStayStableAcrossGrowth) {
  SymbolTable table;
  table.Intern("anchor-name-long-enough-to-defeat-sso");
  const std::string* anchor = &table.name(0);
  for (int i = 0; i < 5000; ++i) {
    table.Intern("grow-" + std::to_string(i));
  }
  EXPECT_EQ(&table.name(0), anchor);  // deque storage: no relocation
  EXPECT_EQ(table.Find("anchor-name-long-enough-to-defeat-sso"), 0u);
}

// Regression: the implicitly-defaulted copy left the copy's index keyed
// by string_views into the *source* table's storage, so lookups on the
// copy read freed memory once the source was gone.
TEST(SymbolTable, CopyOutlivesSourceWithWorkingLookups) {
  SymbolTable copy;
  {
    SymbolTable original;
    for (int i = 0; i < 64; ++i) {
      original.Intern("element-name-longer-than-sso-" + std::to_string(i));
    }
    copy = original;
  }  // original (and its strings) destroyed here
  EXPECT_EQ(copy.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    std::string name = "element-name-longer-than-sso-" + std::to_string(i);
    EXPECT_EQ(copy.Find(name), static_cast<Symbol>(i)) << name;
    EXPECT_EQ(copy.name(static_cast<Symbol>(i)), name);
  }
  // The copy must also keep working after further interning.
  EXPECT_EQ(copy.Intern("fresh"), 64u);
  EXPECT_EQ(copy.Find("element-name-longer-than-sso-7"), 7u);
}

TEST(SymbolTable, MoveTransfersLookupsAndEmptiesSource) {
  SymbolTable source;
  source.Intern("alpha-long-enough-to-defeat-sso");
  source.Intern("beta-long-enough-to-defeat-sso");
  SymbolTable moved(std::move(source));
  EXPECT_EQ(moved.Find("alpha-long-enough-to-defeat-sso"), 0u);
  EXPECT_EQ(moved.Find("beta-long-enough-to-defeat-sso"), 1u);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move): pinned
  EXPECT_EQ(source.Find("alpha-long-enough-to-defeat-sso"), kInvalidSymbol);
}

// The engine's determinism contract depends on this: a table built from a
// document's parse order gets the same ids no matter which pool worker
// built it. 16 threads each intern the same sequence (with duplicates)
// into their own table; every table must be identical.
TEST(SymbolTable, InterningIsDeterministicAcrossThreads) {
  std::vector<std::string> sequence;
  for (int i = 0; i < 500; ++i) {
    sequence.push_back("name-" + std::to_string(i % 37));  // duplicates
  }
  const int kThreads = 16;
  std::vector<SymbolTable> tables(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const std::string& name : sequence) tables[t].Intern(name);
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(tables[0].size(), 37u);
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(tables[t].size(), tables[0].size()) << "thread " << t;
    for (Symbol s = 0; s < tables[0].size(); ++s) {
      ASSERT_EQ(tables[t].name(s), tables[0].name(s))
          << "thread " << t << " symbol " << s;
    }
  }
}

}  // namespace
