//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//

#include "Trace.h"
#include "Stats.h"

#include <cstdio>
#include <utility>

using namespace perfbench;

int Tracer::record(std::string Name, int64_t StartNs, int64_t EndNs,
                   int Parent, int64_t Request) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({std::move(Name), StartNs, EndNs, Parent, Request});
  return static_cast<int>(Spans.size()) - 1;
}

int Tracer::open(std::string Name, int Parent, int64_t Request) {
  int64_t Now = nowNs();
  return record(std::move(Name), Now, Now, Parent, Request);
}

void Tracer::close(int Id) {
  if (Id < 0)
    return;
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

double Tracer::totalSeconds(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  int64_t Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += S.EndNs - S.StartNs;
  return static_cast<double>(Sum) * 1e-9;
}

namespace {

std::vector<std::vector<int>> childLists(const std::vector<Span> &Spans) {
  std::vector<std::vector<int>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(
          static_cast<int>(I));
  return Children;
}

int64_t selfOf(const std::vector<Span> &Spans,
               const std::vector<std::vector<int>> &Children, int Id) {
  const Span &S = Spans[static_cast<size_t>(Id)];
  std::vector<std::pair<int64_t, int64_t>> Ivs;
  for (int C : Children[static_cast<size_t>(Id)])
    Ivs.emplace_back(Spans[static_cast<size_t>(C)].StartNs,
                     Spans[static_cast<size_t>(C)].EndNs);
  return selfLength(S.StartNs, S.EndNs, std::move(Ivs));
}

void jsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '"';
}

} // namespace

int64_t Tracer::selfNs(int Id) const {
  std::vector<Span> Copy = spans();
  return selfOf(Copy, childLists(Copy), Id);
}

double Tracer::coveredShare(int Id, const std::string &ExcludePrefix) const {
  std::vector<Span> Copy = spans();
  std::vector<std::vector<int>> Children = childLists(Copy);
  std::vector<std::pair<int64_t, int64_t>> Ivs;
  std::vector<int> Stack(Children[static_cast<size_t>(Id)]);
  while (!Stack.empty()) {
    int C = Stack.back();
    Stack.pop_back();
    const Span &S = Copy[static_cast<size_t>(C)];
    if (S.Name.compare(0, ExcludePrefix.size(), ExcludePrefix) != 0)
      Ivs.emplace_back(S.StartNs, S.EndNs);
    for (int G : Children[static_cast<size_t>(C)])
      Stack.push_back(G);
  }
  const Span &Root = Copy[static_cast<size_t>(Id)];
  int64_t Dur = Root.EndNs - Root.StartNs;
  return Dur > 0 ? static_cast<double>(coveredLength(Root.StartNs, Root.EndNs,
                                                     std::move(Ivs))) /
                       static_cast<double>(Dur)
                 : 0.0;
}

bool Tracer::writeJson(const std::string &Path,
                       const std::string &Header) const {
  std::vector<Span> Copy = spans();
  std::vector<std::vector<int>> Children = childLists(Copy);
  std::string Out = "{" + Header + "\"spans\": [\n";
  char Buf[160];
  for (size_t I = 0; I != Copy.size(); ++I) {
    const Span &S = Copy[I];
    Out += "  {\"id\": " + std::to_string(I) + ", \"name\": ";
    jsonString(Out, S.Name);
    std::snprintf(Buf, sizeof(Buf),
                  ", \"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, "
                  "\"parent\": %d, \"request\": %lld}",
                  static_cast<long long>(S.StartNs),
                  static_cast<long long>(S.EndNs),
                  static_cast<long long>(
                      selfOf(Copy, Children, static_cast<int>(I))),
                  S.Parent, static_cast<long long>(S.Request));
    Out += Buf;
    Out += I + 1 == Copy.size() ? "\n" : ",\n";
  }
  Out += "]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

int &perfbench::currentSpan() {
  thread_local int Current = -1;
  return Current;
}

ScopedSpan::ScopedSpan(Tracer &T, std::string Name, int64_t Request)
    : T(T), SavedParent(currentSpan()), StartNs(nowNs()) {
  Id = T.record(std::move(Name), StartNs, StartNs, SavedParent, Request);
  if (Id >= 0)
    currentSpan() = Id;
}

ScopedSpan::~ScopedSpan() {
  T.close(Id);
  currentSpan() = SavedParent;
}

double ScopedSpan::elapsed() const {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}
