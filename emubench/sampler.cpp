#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace emubench {

namespace {

constexpr int kMaxDepth = 32;

// The namespaces under p2plab:: (one per src/ subsystem). Anything else
// after `p2plab::` is a root-namespace type such as p2plab::Rng.
constexpr const char* kModules[] = {
    "bt",      "core",    "engine",  "fault",    "gossip", "ipfw",
    "metrics", "net",     "profile", "scenario", "sched",  "sim",
    "sockets", "topology", "vnode",  "workload"};

}  // namespace

struct SampleSlot {
  std::atomic<int> depth{0};  // published last; 0 = empty
  void* pcs[kMaxDepth];
};

namespace {

// Handler state. One sampler runs at a time; the handler reads only these.
std::atomic<SampleSlot*> g_slots{nullptr};
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};

void on_sigprof(int /*signo*/) {
  const int saved_errno = errno;
  SampleSlot* slots = g_slots.load(std::memory_order_acquire);
  if (slots != nullptr) {
    const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
    if (i < g_capacity) {
      const int depth = backtrace(slots[i].pcs, kMaxDepth);
      slots[i].depth.store(depth > 0 ? depth : -1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

}  // namespace

StackSampler::StackSampler(std::size_t capacity)
    : slots_(std::make_unique<SampleSlot[]>(capacity)), capacity_(capacity) {
  g_capacity = capacity;
  g_next.store(0);
  g_slots.store(slots_.get(), std::memory_order_release);
}

StackSampler::~StackSampler() {
  stop();
  g_slots.store(nullptr, std::memory_order_release);
}

void StackSampler::start(long interval_us) {
  if (running_) return;
  // backtrace() loads the unwinder on first use, which is not safe inside
  // a signal handler: pay that cost here.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
  running_ = true;
}

void StackSampler::stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  running_ = false;
}

namespace {

/// The module a demangled function name belongs to: the identifier after
/// `p2plab::` in the function's own qualified name, or "p2plab" for the
/// root namespace; "" when the function is not P2PLab code.
std::string module_of(const std::string& demangled) {
  // The function's own name is the last top-level token before the first
  // top-level '(' (its parameter list); return types and template
  // arguments never count, so std::vector<p2plab::net::Packet>::push_back
  // is not net code.
  int depth = 0;
  std::size_t token = 0;
  std::size_t end = demangled.size();
  for (std::size_t i = 0; i < demangled.size(); ++i) {
    const char c = demangled[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      --depth;
    } else if (depth == 0 && c == ' ') {
      token = i + 1;
    } else if (depth == 0 && c == '(') {
      end = i;
      break;
    }
  }
  const std::string_view name =
      std::string_view(demangled).substr(token, end - token);
  constexpr std::string_view kRoot = "p2plab::";
  if (name.substr(0, kRoot.size()) != kRoot) return "";
  const std::string_view rest = name.substr(kRoot.size());
  for (const char* module : kModules) {
    const std::size_t n = std::strlen(module);
    if (rest.size() > n + 1 && rest.substr(0, n) == module &&
        rest.substr(n, 2) == "::") {
      return module;
    }
  }
  return "p2plab";
}

struct FunctionSymbol {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::string module;
};

int main_program_bias(dl_phdr_info* info, std::size_t /*size*/, void* out) {
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object is the main program
}

std::vector<char> read_range(std::ifstream& in, std::uint64_t offset,
                             std::uint64_t size) {
  std::vector<char> bytes(size);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("short read of /proc/self/exe");
  return bytes;
}

/// Every function in the executable's .symtab, at its runtime address.
std::vector<FunctionSymbol> load_functions() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  Elf64_Ehdr header{};
  in.read(reinterpret_cast<char*>(&header), sizeof header);
  if (!in || std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
      header.e_ident[EI_CLASS] != ELFCLASS64) {
    throw std::runtime_error("/proc/self/exe is not a 64-bit ELF file");
  }
  const std::vector<char> section_bytes =
      read_range(in, header.e_shoff,
                 std::uint64_t{header.e_shnum} * sizeof(Elf64_Shdr));
  std::vector<Elf64_Shdr> sections(header.e_shnum);
  std::memcpy(sections.data(), section_bytes.data(), section_bytes.size());

  std::uintptr_t bias = 0;
  dl_iterate_phdr(main_program_bias, &bias);

  std::vector<FunctionSymbol> functions;
  for (const Elf64_Shdr& section : sections) {
    if (section.sh_type != SHT_SYMTAB || section.sh_link >= sections.size()) {
      continue;
    }
    const Elf64_Shdr& strtab = sections[section.sh_link];
    const std::vector<char> names =
        read_range(in, strtab.sh_offset, strtab.sh_size);
    const std::vector<char> symbol_bytes =
        read_range(in, section.sh_offset, section.sh_size);
    std::vector<Elf64_Sym> symbols(symbol_bytes.size() / sizeof(Elf64_Sym));
    std::memcpy(symbols.data(), symbol_bytes.data(),
                symbols.size() * sizeof(Elf64_Sym));
    for (const Elf64_Sym& symbol : symbols) {
      if (ELF64_ST_TYPE(symbol.st_info) != STT_FUNC || symbol.st_size == 0 ||
          symbol.st_value == 0 || symbol.st_name >= names.size()) {
        continue;
      }
      const char* mangled = names.data() + symbol.st_name;
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
      const std::string name = status == 0 ? demangled : mangled;
      std::free(demangled);
      const std::uintptr_t begin = bias + symbol.st_value;
      functions.push_back(
          {begin, begin + symbol.st_size, module_of(name)});
    }
  }
  std::sort(functions.begin(), functions.end(),
            [](const FunctionSymbol& a, const FunctionSymbol& b) {
              return a.begin < b.begin;
            });
  return functions;
}

}  // namespace

StackSampler::Attribution StackSampler::attribute() const {
  const std::vector<FunctionSymbol> functions = load_functions();
  std::unordered_map<std::uintptr_t, std::string> cache;
  auto module_at = [&](std::uintptr_t pc) -> const std::string& {
    auto [it, inserted] = cache.try_emplace(pc);
    if (inserted) {
      auto next = std::upper_bound(
          functions.begin(), functions.end(), pc,
          [](std::uintptr_t value, const FunctionSymbol& f) {
            return value < f.begin;
          });
      if (next != functions.begin() && pc < std::prev(next)->end) {
        it->second = std::prev(next)->module;
      }
    }
    return it->second;
  };

  Attribution result;
  const std::size_t taken =
      std::min(g_next.load(std::memory_order_relaxed), capacity_);
  for (std::size_t i = 0; i < taken; ++i) {
    const int depth = slots_[i].depth.load(std::memory_order_acquire);
    if (depth == 0) continue;  // claimed but never published
    ++result.total;
    bool charged = false;
    for (int f = 0; f < depth && !charged; ++f) {
      // Return addresses point past the call; step back into it.
      const auto pc = reinterpret_cast<std::uintptr_t>(slots_[i].pcs[f]) - 1;
      const std::string& module = module_at(pc);
      if (!module.empty()) {
        ++result.by_module[module];
        charged = true;
      }
    }
    if (!charged) ++result.unattributed;
  }
  return result;
}

}  // namespace emubench
