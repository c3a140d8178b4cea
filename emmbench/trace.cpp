// In-memory spans, their aggregation, and the Chrome trace-event export.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "driver/pass.h"

namespace emmbench {

namespace {

i64 nowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

/// Times the standard pass `name` (a string owned by the static registry).
class TracedPass : public emm::Pass {
public:
  TracedPass(const std::string& name, Tracer* tracer)
      : Pass(name),
        name_(name),
        inner_(emm::PassRegistry::standard().create(name)),
        tracer_(tracer) {}
  void run(emm::CompileState& state) override {
    ScopedSpan span(tracer_, name_.c_str());
    inner_->run(state);
  }

private:
  const std::string& name_;
  emm::PassPtr inner_;
  Tracer* tracer_;
};

}  // namespace

int Tracer::begin(const char* name, i64 request) {
  Span s;
  s.name = name;
  s.startNs = nowNs();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request >= 0 || s.parent < 0 ? request : spans_[s.parent].request;
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::end(int index) {
  spans_[index].endNs = nowNs();
  stack_.pop_back();
}

std::map<std::string, SpanTotal> spanTotals(const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotal> totals;
  for (const Tracer* t : tracers)
    for (const Span& s : t->spans()) {
      SpanTotal& total = totals[s.name];
      ++total.count;
      total.ms += static_cast<double>(s.endNs - s.startNs) / 1e6;
    }
  return totals;
}

double leafCoverage(const std::vector<const Tracer*>& tracers, std::string_view root) {
  double rootNs = 0, leafNs = 0;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<bool> hasChild(spans.size(), false);
    for (const Span& s : spans)
      if (s.parent >= 0) hasChild[s.parent] = true;
    // Root of each span, resolved once in index order (parents come first).
    std::vector<int> rootOf(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
      rootOf[i] = spans[i].parent < 0 ? static_cast<int>(i) : rootOf[spans[i].parent];
    for (size_t i = 0; i < spans.size(); ++i) {
      if (root != spans[rootOf[i]].name) continue;
      const double ns = static_cast<double>(spans[i].endNs - spans[i].startNs);
      if (spans[i].parent < 0)
        rootNs += ns;
      else if (!hasChild[i])
        leafNs += ns;
    }
  }
  return rootNs > 0 ? leafNs / rootNs : 0;
}

bool writeChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (const Tracer* t : tracers)
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                    static_cast<double>(s.startNs) / 1e3,
                    static_cast<double>(s.endNs - s.startNs) / 1e3, t->tid());
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\"," << buf << ",\"args\":{\"span\":" << i
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
      first = false;
    }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void tracePasses(emm::Compiler& c, Tracer* tracer) {
  for (const std::string& name : emm::PassRegistry::standard().order())
    c.replacePass(name, std::make_shared<TracedPass>(name, tracer));
}

}  // namespace emmbench
