#include "objmodel/linearize.h"

namespace tyder {

// A type has no C3 linearization when its own merge fails or any supertype
// has none.
bool CplMemo::HasC3(TypeId t) {
  Entry& e = memo_[t];
  if (e.state == kDone) return true;
  if (e.state != kUnknown) return false;  // failed, or a cycle
  e.state = kActive;
  const std::vector<TypeId>& supers = graph_.type(t).supertypes();
  for (TypeId s : supers) {
    if (!HasC3(s)) {
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

std::span<const TypeId> CplMemo::Cpl(TypeId t) {
  if (!HasC3(t) && memo_[t].begin == memo_[t].end) {
    std::vector<TypeId> fallback = graph_.SupertypeClosure(t);
    memo_[t].begin = static_cast<uint32_t>(buf_.size());
    buf_.insert(buf_.end(), fallback.begin(), fallback.end());
    memo_[t].end = static_cast<uint32_t>(buf_.size());
  }
  return std::span<const TypeId>(buf_).subspan(
      memo_[t].begin, memo_[t].end - memo_[t].begin);
}

// C3 merge of the supertypes' linearizations and the local precedence order
// `supers`, appended to buf_: repeatedly take the head of some input that
// appears in no input's tail. A taken head can only sit at the front of an
// input, so each input is consumed through a cursor. False if the merge gets
// stuck (inconsistent local precedence orders).
bool CplMemo::Merge(const std::vector<TypeId>& supers) {
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

std::vector<TypeId> ClassPrecedenceList(const TypeGraph& graph, TypeId t) {
  CplMemo memo(graph);
  std::span<const TypeId> cpl = memo.Cpl(t);
  return std::vector<TypeId>(cpl.begin(), cpl.end());
}

std::vector<std::vector<TypeId>> AllClassPrecedenceLists(
    const TypeGraph& graph) {
  CplMemo memo(graph);
  std::vector<std::vector<TypeId>> cpls;
  cpls.reserve(graph.NumTypes());
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    std::span<const TypeId> cpl = memo.Cpl(t);
    cpls.emplace_back(cpl.begin(), cpl.end());
  }
  return cpls;
}

bool HasC3Linearization(const TypeGraph& graph, TypeId t) {
  return CplMemo(graph).HasC3(t);
}

}  // namespace tyder
