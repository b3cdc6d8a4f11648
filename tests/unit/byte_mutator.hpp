#pragma once

// Deterministic byte mutator shared by the parser fuzz tests: a splitmix64
// stream drives bit flips, byte inserts and byte deletes, so a fixed seed
// replays the same mutants on every platform.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tfmcc::test {

class ByteMutator {
 public:
  explicit ByteMutator(std::uint64_t seed) : state_{seed} {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

  /// Byte edit `kind` of `s` at a random position: 0 flips one bit, 1
  /// inserts a random byte, 2 deletes a byte.
  void edit(std::string& s, std::size_t kind) {
    switch (kind) {
      case 0:
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(below(s.size() + 1)),
                 static_cast<char>(below(256)));
        break;
      default:
        if (!s.empty()) s.erase(below(s.size()), 1);
        break;
    }
  }

  /// One random byte edit of `s`.
  void mutate(std::string& s) { edit(s, below(3)); }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace tfmcc::test
