// Experiment B7: content-model substrate costs -- Glushkov construction,
// word matching (the inner loop of structural validation), 1-unambiguity
// checking, and language inclusion (DTD evolution).

#include <benchmark/benchmark.h>

#include <string>

#include "regex/content_model.h"
#include "regex/glushkov.h"
#include "regex/inclusion.h"

namespace {

using namespace xic;

// (a1, a2*, a3*, ..., an) -- a wide deterministic model.
RegexPtr WideModel(int n) {
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Symbol("a0"));
  for (int i = 1; i < n; ++i) {
    parts.push_back(Regex::Star(Regex::Symbol("a" + std::to_string(i))));
  }
  return Regex::Sequence(std::move(parts));
}

std::vector<std::string> WideWord(int n, int repeats) {
  std::vector<std::string> word{"a0"};
  for (int i = 1; i < n; ++i) {
    for (int r = 0; r < repeats; ++r) {
      word.push_back("a" + std::to_string(i));
    }
  }
  return word;
}

void BM_GlushkovConstruction(benchmark::State& state) {
  RegexPtr model = WideModel(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    GlushkovAutomaton nfa(model);
    benchmark::DoNotOptimize(nfa.num_positions());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GlushkovConstruction)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_GlushkovMatch(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  GlushkovAutomaton nfa(WideModel(n));
  std::vector<std::string> word = WideWord(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nfa.Matches(word));
  }
  state.SetComplexityN(static_cast<int64_t>(word.size()));
}
BENCHMARK(BM_GlushkovMatch)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_OneUnambiguityCheck(benchmark::State& state) {
  GlushkovAutomaton nfa(WideModel(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nfa.IsOneUnambiguous());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OneUnambiguityCheck)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_LanguageInclusion(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RegexPtr narrow = WideModel(n);
  // The widened variant: every element starred.
  std::vector<RegexPtr> parts;
  for (int i = 0; i < n; ++i) {
    parts.push_back(Regex::Star(Regex::Symbol("a" + std::to_string(i))));
  }
  RegexPtr wide = Regex::Sequence(std::move(parts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegexLanguageIncluded(narrow, wide));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LanguageInclusion)
    ->RangeMultiplier(2)
    ->Range(4, 1024)
    ->Complexity();

}  // namespace
