#include "driver/backend.h"

#include <atomic>

#include "codegen/emit_cell.h"
#include "codegen/emit_cuda.h"
#include "ir/emit.h"
#include "support/diagnostics.h"

namespace emm {

namespace {

/// Relaxed is enough: the benches read deltas after joining all work.
std::atomic<std::uint64_t> g_emitterInvocations{0};

void countEmit() { g_emitterInvocations.fetch_add(1, std::memory_order_relaxed); }

/// Plain C rendering (ir/emit.h): display-only Figure-style text that every
/// example prints; it does not compile and no test builds it. The text is
/// already size-generic — sizes appear as named parameters, local extents
/// print their closed-form bound expressions — so the only runtime slots
/// are the size parameters themselves.
class CBackend : public Backend {
public:
  CBackend() : Backend("c") {}
  std::string emit(const CodeUnit& unit, const CompileOptions& options) const override {
    return emit(unit, options, nullptr, nullptr);
  }
  std::string emit(const CodeUnit& unit, const CompileOptions& options,
                   const BufferLayout* layout, ArtifactInfo* info) const override {
    (void)layout;
    countEmit();
    if (info != nullptr) {
      info->sizeGeneric = options.runtimeSizeArgs;
      if (options.runtimeSizeArgs && unit.source != nullptr) {
        int bound = options.numBoundParams < 0 ? static_cast<int>(options.paramValues.size())
                                               : options.numBoundParams;
        for (int j = 0; j < bound; ++j) {
          BindSlot s;
          s.name = unit.source->paramNames[j];
          s.kind = BindSlot::Kind::SizeParam;
          s.a = j;
          info->slots.push_back(std::move(s));
        }
      }
    }
    return emitC(unit);
  }
};

/// CUDA source rendering (codegen/emit_cuda.h): the artifact the paper's
/// toolchain fed to nvcc.
class CudaBackend : public Backend {
public:
  CudaBackend() : Backend("cuda") {}
  std::string emit(const CodeUnit& unit, const CompileOptions& options) const override {
    return emit(unit, options, nullptr, nullptr);
  }
  std::string emit(const CodeUnit& unit, const CompileOptions& options,
                   const BufferLayout* layout, ArtifactInfo* info) const override {
    countEmit();
    return emitCuda(unit, options.cudaEmitOptions(), layout, info);
  }
};

/// Cell-like target (codegen/emit_cell.h): DMA-style staged copies against
/// the SPE local store. Selecting it forces stageEverything in the driver.
class CellBackend : public Backend {
public:
  CellBackend() : Backend("cell") {}
  std::string emit(const CodeUnit& unit, const CompileOptions& options) const override {
    return emit(unit, options, nullptr, nullptr);
  }
  std::string emit(const CodeUnit& unit, const CompileOptions& options,
                   const BufferLayout* layout, ArtifactInfo* info) const override {
    (void)layout;
    countEmit();
    return emitCell(unit, options.cellEmitOptions(), info);
  }
};

}  // namespace

std::uint64_t emitterInvocations() { return g_emitterInvocations.load(std::memory_order_relaxed); }

void BackendRegistry::add(std::unique_ptr<Backend> backend) {
  EMM_REQUIRE(backend != nullptr, "null backend");
  EMM_REQUIRE(lookup(backend->name()) == nullptr,
              "backend '" + backend->name() + "' already registered");
  backends_.push_back(std::move(backend));
}

const Backend* BackendRegistry::lookup(const std::string& name) const {
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  return nullptr;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  return out;
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry* reg = [] {
    auto* r = new BackendRegistry;
    r->add(std::make_unique<CBackend>());
    r->add(std::make_unique<CudaBackend>());
    r->add(std::make_unique<CellBackend>());
    return r;
  }();
  return *reg;
}

}  // namespace emm
