// v6t::analysis — kept only for the repo benchmark's provenance line.
//
// The index-based analysis API runs the word-level kernels and the row
// APIs run the scalar references (DESIGN.md §16); nothing selects
// between them. `perfbench/cpp/main.cpp` includes this header and prints
// the constant below in its provenance line, so it stays until the
// benchmark stops reporting the field.
#pragma once

namespace v6t::analysis {

inline constexpr bool kSimdCompiledIn = true;

} // namespace v6t::analysis
