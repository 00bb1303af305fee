/// The layering of src/, derived from the sources themselves. A module is
/// a directory src/<m>/ with a CMakeLists.txt that builds svo_<m>. What it
/// uses is the set of modules named by the `#include "<module>/..."` lines
/// of its .hpp and .cpp files; what it declares is the svo_* entries of
/// its target_link_libraries(svo_<m> ...). The checks fail, naming the
/// edge, when a module includes one it does not declare, declares one it
/// never includes, or the graph has a cycle; and when the mechanism
/// library (core) or the service (svc) can reach the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;
using Graph = std::map<std::string, std::set<std::string>>;

struct Modules {
  Graph includes;                  // module -> modules its sources include
  Graph declared;                  // module -> modules its library links
  std::set<std::string> unparsed;  // modules with no link declaration
};

std::string read(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The module a line includes, or "" when it is not `#include "<m>/..."`.
std::string included_module(const std::string& line) {
  const std::size_t start = line.find_first_not_of(" \t");
  const std::string directive = "#include \"";
  if (start == std::string::npos || line.compare(start, directive.size(),
                                                 directive) != 0) {
    return "";
  }
  const std::size_t name = start + directive.size();
  const std::size_t slash = line.find('/', name);
  const std::size_t quote = line.find('"', name);
  if (slash == std::string::npos || slash > quote) return "";
  return line.substr(name, slash - name);
}

/// The svo_* entries of target_link_libraries(svo_<module> ...), or
/// false when the file has no such call.
bool declared_modules(const std::string& cmake, const std::string& module,
                      std::set<std::string>& out) {
  const std::string call = "target_link_libraries(svo_" + module;
  const std::size_t at = cmake.find(call);
  if (at == std::string::npos) return false;
  const std::size_t end = cmake.find(')', at);
  std::istringstream args(
      cmake.substr(at + call.size(), end - at - call.size()));
  for (std::string word; args >> word;) {
    if (word.rfind("svo_", 0) == 0) out.insert(word.substr(4));
  }
  return true;
}

const Modules& modules() {
  static const Modules m = [] {
    Modules out;
    const fs::path root = SVO_SOURCE_ROOT;
    for (const fs::directory_entry& dir : fs::directory_iterator(root)) {
      if (dir.is_directory() && fs::exists(dir.path() / "CMakeLists.txt")) {
        out.includes[dir.path().filename().string()];
      }
    }
    for (auto& [module, uses] : out.includes) {
      for (const fs::directory_entry& file :
           fs::directory_iterator(root / module)) {
        const fs::path ext = file.path().extension();
        if (ext != ".hpp" && ext != ".cpp") continue;
        std::istringstream lines(read(file.path()));
        for (std::string line; std::getline(lines, line);) {
          const std::string dep = included_module(line);
          if (dep != module && out.includes.count(dep) != 0) uses.insert(dep);
        }
      }
      if (!declared_modules(read(root / module / "CMakeLists.txt"), module,
                            out.declared[module])) {
        out.unparsed.insert(module);
      }
    }
    return out;
  }();
  return m;
}

/// Every module reachable from `from` over declared links.
std::set<std::string> closure(const std::string& from) {
  std::set<std::string> seen;
  std::vector<std::string> todo{from};
  while (!todo.empty()) {
    const std::string m = todo.back();
    todo.pop_back();
    const auto links = modules().declared.find(m);
    if (links == modules().declared.end()) continue;
    for (const std::string& dep : links->second) {
      if (seen.insert(dep).second) todo.push_back(dep);
    }
  }
  return seen;
}

TEST(ModuleGraphTest, FindsEveryModuleAndItsDeclaration) {
  ASSERT_FALSE(modules().includes.empty()) << "no module under "
                                           << SVO_SOURCE_ROOT;
  for (const char* m : {"util", "core", "sim", "svc"}) {
    EXPECT_EQ(modules().includes.count(m), 1u) << "no module " << m;
  }
  for (const std::string& m : modules().unparsed) {
    ADD_FAILURE() << "src/" << m
                  << "/CMakeLists.txt has no target_link_libraries(svo_" << m
                  << " ...)";
  }
}

TEST(ModuleGraphTest, EveryIncludeIsDeclared) {
  for (const auto& [m, uses] : modules().includes) {
    for (const std::string& dep : uses) {
      EXPECT_EQ(modules().declared.at(m).count(dep), 1u)
          << m << " -> " << dep << ": src/" << m << " includes " << dep
          << "/ but svo_" << m << " does not link svo_" << dep;
    }
  }
}

TEST(ModuleGraphTest, EveryDeclarationIsIncluded) {
  for (const auto& [m, links] : modules().declared) {
    for (const std::string& dep : links) {
      EXPECT_EQ(modules().includes.at(m).count(dep), 1u)
          << m << " -> " << dep << ": svo_" << m << " links svo_" << dep
          << " but no file of src/" << m << " includes " << dep << "/";
    }
  }
}

TEST(ModuleGraphTest, IsAcyclicAndPrintsItsLevels) {
  // A module's level is one above its highest dependency's; a module met
  // again while its own dependencies are being levelled closes a cycle.
  std::map<std::string, int> level;
  std::vector<std::string> path;
  std::function<int(const std::string&)> level_of =
      [&](const std::string& m) -> int {
    if (const auto it = level.find(m); it != level.end()) return it->second;
    if (std::find(path.begin(), path.end(), m) != path.end()) {
      std::string cycle;
      for (auto it = std::find(path.begin(), path.end(), m); it != path.end();
           ++it) {
        cycle += *it + " -> ";
      }
      ADD_FAILURE() << "cycle: " << cycle << m;
      return -1;
    }
    path.push_back(m);
    int l = 0;
    for (const std::string& dep : modules().includes.at(m)) {
      const int below = level_of(dep);
      if (below < 0) return -1;
      l = std::max(l, below + 1);
    }
    path.pop_back();
    level[m] = l;
    return l;
  };
  std::vector<std::vector<std::string>> levels;
  for (const auto& entry : modules().includes) {
    const int l = level_of(entry.first);
    if (l < 0) return;
    if (levels.size() <= static_cast<std::size_t>(l)) levels.resize(l + 1);
    levels[l].push_back(entry.first);
  }
  for (std::size_t l = 0; l < levels.size(); ++l) {
    std::string names;
    for (const std::string& m : levels[l]) {
      names += (names.empty() ? "" : ", ") + m;
    }
    std::printf("level %zu: %s\n", l, names.c_str());
  }
}

TEST(ModuleGraphTest, MechanismAndServiceDoNotReachTheSimulator) {
  const std::map<std::string, std::vector<std::string>> forbidden = {
      {"core", {"des", "sim", "svc"}}, {"svc", {"des", "sim"}}};
  for (const auto& [from, targets] : forbidden) {
    const std::set<std::string> reach = closure(from);
    for (const std::string& to : targets) {
      EXPECT_EQ(reach.count(to), 0u)
          << from << " -> " << to << ": svo_" << from << " reaches svo_" << to;
    }
  }
}

}  // namespace
