// v6t::net — binary radix trie keyed by IPv6 prefixes.
//
// Backs the BGP RIB's longest-prefix match and the telescopes' "which of my
// prefixes did this packet land in" lookup. One node per bit of the deepest
// stored prefix along each path; fine for RIB-scale data (dozens to a few
// thousand prefixes).
//
// Both lookups run once or twice per simulated packet (DESIGN.md §11), so
// they walk bare nodes: covers() stops at the first stored prefix on the
// path, and longestMatch() builds a Prefix for the best node only.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace v6t::net {

template <typename T>
class PrefixTrie {
public:
  /// Insert or overwrite the value stored at `prefix`.
  /// Returns true if a new entry was created (false on overwrite).
  bool insert(const Prefix& prefix, T value) {
    Node* node = &root_;
    for (unsigned i = 0; i < prefix.length(); ++i) {
      auto& child = node->child[prefix.address().bit(i) ? 1 : 0];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Remove the entry at exactly `prefix`. Returns true if one existed.
  /// (Nodes are not pruned; the trie is small and short-lived.)
  bool erase(const Prefix& prefix) {
    Node* node = findNode(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  [[nodiscard]] const T* findExact(const Prefix& prefix) const {
    const Node* node = findNode(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value
                                                        : nullptr;
  }
  [[nodiscard]] T* findExact(const Prefix& prefix) {
    return const_cast<T*>(std::as_const(*this).findExact(prefix));
  }

  /// Longest-prefix match for an address; nullopt if nothing covers it.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> longestMatch(
      const Ipv6Address& addr) const {
    const Node* node = &root_;
    const Node* best = nullptr;
    unsigned bestDepth = 0;
    unsigned depth = 0;
    while (true) {
      if (node->value.has_value()) {
        best = node;
        bestDepth = depth;
      }
      if (depth == 128) break;
      const Node* child = node->child[addr.bit(depth) ? 1 : 0].get();
      if (child == nullptr) break;
      node = child;
      ++depth;
    }
    if (best == nullptr) return std::nullopt;
    return std::pair{Prefix{addr, bestDepth}, &*best->value};
  }

  /// Does any stored prefix cover `addr`? Stops at the first one on the
  /// path — the routability test, which needs no match details.
  [[nodiscard]] bool covers(const Ipv6Address& addr) const {
    const Node* node = &root_;
    for (unsigned depth = 0;; ++depth) {
      if (node->value.has_value()) return true;
      if (depth == 128) return false;
      node = node->child[addr.bit(depth) ? 1 : 0].get();
      if (node == nullptr) return false;
    }
  }

  /// All stored (prefix, value) pairs in lexicographic (trie) order.
  [[nodiscard]] std::vector<std::pair<Prefix, const T*>> entries() const {
    std::vector<std::pair<Prefix, const T*>> out;
    Ipv6Address key;
    collect(&root_, key, 0, out);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    root_ = Node{};
    size_ = 0;
  }

private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> child[2];
  };

  const Node* findNode(const Prefix& prefix) const {
    const Node* node = &root_;
    for (unsigned i = 0; i < prefix.length(); ++i) {
      node = node->child[prefix.address().bit(i) ? 1 : 0].get();
      if (node == nullptr) return nullptr;
    }
    return node;
  }
  Node* findNode(const Prefix& prefix) {
    return const_cast<Node*>(std::as_const(*this).findNode(prefix));
  }

  void collect(const Node* node, Ipv6Address& key, unsigned depth,
               std::vector<std::pair<Prefix, const T*>>& out) const {
    if (node->value.has_value()) {
      out.emplace_back(Prefix{key, depth}, &*node->value);
    }
    if (depth == 128) return;
    for (int b = 0; b < 2; ++b) {
      if (node->child[b]) {
        key.setBit(depth, b != 0);
        collect(node->child[b].get(), key, depth + 1, out);
        key.setBit(depth, false);
      }
    }
  }

  Node root_;
  std::size_t size_ = 0;
};

} // namespace v6t::net
