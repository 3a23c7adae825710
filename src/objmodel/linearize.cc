#include "objmodel/linearize.h"

namespace tyder {

namespace {

// Memoized C3 over one unchanged graph: each type's linearization is merged
// once, from its direct supertypes' memoized ones, and appended to one flat
// buffer. A type has none when its own merge fails or any supertype has none.
class C3Memo {
 public:
  explicit C3Memo(const TypeGraph& graph)
      : graph_(graph), memo_(graph.NumTypes()) {}

  // True iff `t` has a C3 linearization; it is then
  // buf_[memo_[t].begin, memo_[t].end).
  bool Get(TypeId t) {
    Entry& e = memo_[t];
    if (e.state == kDone) return true;
    if (e.state != kUnknown) return false;  // failed, or a cycle
    e.state = kActive;
    const std::vector<TypeId>& supers = graph_.type(t).supertypes();
    for (TypeId s : supers) {
      if (!Get(s)) {
        e.state = kFailed;
        return false;
      }
    }
    uint32_t begin = static_cast<uint32_t>(buf_.size());
    buf_.push_back(t);
    if (!Merge(supers)) {
      buf_.resize(begin);
      e.state = kFailed;
      return false;
    }
    e = {begin, static_cast<uint32_t>(buf_.size()), kDone};
    return true;
  }

  // The class precedence list: C3, or the BFS fallback.
  std::vector<TypeId> Cpl(TypeId t) {
    if (!Get(t)) return graph_.SupertypeClosure(t);
    return std::vector<TypeId>(buf_.begin() + memo_[t].begin,
                               buf_.begin() + memo_[t].end);
  }

 private:
  enum State : uint8_t { kUnknown, kActive, kDone, kFailed };
  struct Entry {
    uint32_t begin = 0, end = 0;  // linearization at buf_[begin, end)
    State state = kUnknown;
  };

  // C3 merge of the supertypes' linearizations and the local precedence
  // order `supers`, appended to buf_: repeatedly take the head of some input
  // that appears in no input's tail. A taken head can only sit at the front
  // of an input, so each input is consumed through a cursor. False if the
  // merge gets stuck (inconsistent local precedence orders).
  bool Merge(const std::vector<TypeId>& supers) {
    const size_t n = supers.size() + 1;  // the last input is `supers`
    auto size = [&](size_t k) {
      return k < supers.size() ? memo_[supers[k]].end - memo_[supers[k]].begin
                               : static_cast<uint32_t>(supers.size());
    };
    auto at = [&](size_t k, size_t i) {
      return k < supers.size() ? buf_[memo_[supers[k]].begin + i] : supers[i];
    };
    std::vector<uint32_t> cursor(n, 0);
    auto in_a_tail = [&](TypeId t) {
      for (size_t k = 0; k < n; ++k) {
        for (size_t i = cursor[k] + 1; i < size(k); ++i) {
          if (at(k, i) == t) return true;
        }
      }
      return false;
    };
    for (;;) {
      bool pending = false;
      bool progressed = false;
      for (size_t k = 0; k < n && !progressed; ++k) {
        if (cursor[k] == size(k)) continue;
        pending = true;
        TypeId head = at(k, cursor[k]);
        if (in_a_tail(head)) continue;
        buf_.push_back(head);
        for (size_t j = 0; j < n; ++j) {
          if (cursor[j] < size(j) && at(j, cursor[j]) == head) ++cursor[j];
        }
        progressed = true;
      }
      if (!pending) return true;
      if (!progressed) return false;
    }
  }

  const TypeGraph& graph_;
  std::vector<Entry> memo_;
  std::vector<TypeId> buf_;
};

}  // namespace

std::vector<TypeId> ClassPrecedenceList(const TypeGraph& graph, TypeId t) {
  return C3Memo(graph).Cpl(t);
}

std::vector<std::vector<TypeId>> AllClassPrecedenceLists(
    const TypeGraph& graph) {
  C3Memo memo(graph);
  std::vector<std::vector<TypeId>> cpls;
  cpls.reserve(graph.NumTypes());
  for (TypeId t = 0; t < graph.NumTypes(); ++t) cpls.push_back(memo.Cpl(t));
  return cpls;
}

bool HasC3Linearization(const TypeGraph& graph, TypeId t) {
  return C3Memo(graph).Get(t);
}

}  // namespace tyder
