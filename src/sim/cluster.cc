#include "sim/cluster.h"

#include <stdexcept>

#include "common/spec.h"

namespace approxhadoop::sim {

ServerClass
ServerClass::xeon(uint32_t count)
{
    ServerClass cls;
    cls.name = "xeon";
    cls.count = count;
    cls.map_slots = 8;
    cls.reduce_slots = 1;
    cls.speed = 1.0;
    cls.power = xeonPowerModel();
    return cls;
}

ServerClass
ServerClass::atom(uint32_t count)
{
    ServerClass cls;
    cls.name = "atom";
    cls.count = count;
    cls.map_slots = 4;
    cls.reduce_slots = 1;
    // The Atom nodes are substantially slower than the Xeon reference.
    cls.speed = 0.35;
    cls.power = atomPowerModel();
    return cls;
}

ServerClass
ServerClass::byName(const std::string& name, uint32_t count)
{
    if (name == "xeon") {
        return xeon(count);
    }
    if (name == "atom") {
        return atom(count);
    }
    throw std::invalid_argument("cluster spec: unknown server class '" +
                                name + "' (want xeon or atom)");
}

ClusterConfig
ClusterConfig::xeon10()
{
    ClusterConfig config;
    config.num_servers = 10;
    config.map_slots_per_server = 8;
    config.reduce_slots_per_server = 1;
    config.speed = 1.0;
    config.power = xeonPowerModel();
    return config;
}

ClusterConfig
ClusterConfig::atom60()
{
    ClusterConfig config;
    config.num_servers = 60;
    config.map_slots_per_server = 4;
    config.reduce_slots_per_server = 1;
    // The Atom nodes are substantially slower than the Xeon reference.
    config.speed = 0.35;
    config.power = atomPowerModel();
    return config;
}

ClusterConfig
ClusterConfig::parse(const std::string& spec)
{
    // The preset names keep their uniform (classes-empty) form so
    // pre-elasticity callers see bit-identical configs.
    if (spec == "xeon10") {
        return xeon10();
    }
    if (spec == "atom60") {
        return atom60();
    }
    if (spec.empty()) {
        throw std::invalid_argument("cluster spec: empty");
    }

    ClusterConfig config;
    uint32_t total = 0;
    try {
        for (const std::string& term : spec::split(spec, '+')) {
            auto [count, name] = spec::countedTerm(
                term, spec::Count{"a server count", 1, 100000},
                "<count><class>, e.g. 10xeon; or the presets xeon10 / "
                "atom60");
            config.classes.push_back(
                ServerClass::byName(name, static_cast<uint32_t>(count)));
            total += static_cast<uint32_t>(count);
        }
    } catch (const spec::BadValue& e) {
        throw std::invalid_argument(std::string("cluster spec: ") +
                                    e.what());
    }

    // Mirror the first class into the scalar fields so legacy readers
    // (trace metadata, uniform-fleet assumptions) stay sensible.
    const ServerClass& first = config.classes.front();
    config.num_servers = total;
    config.map_slots_per_server = first.map_slots;
    config.reduce_slots_per_server = first.reduce_slots;
    config.speed = first.speed;
    config.power = first.power;
    return config;
}

std::string
ClusterConfig::spec() const
{
    if (classes.empty()) {
        if (num_servers == 60 && map_slots_per_server == 4 &&
            speed != 1.0) {
            return "atom60";
        }
        if (num_servers == 10 && map_slots_per_server == 8) {
            return "xeon10";
        }
        // Custom uniform config with no grammar name: describe it as a
        // xeon-shaped term so the label at least carries the count.
        return std::to_string(num_servers) + "xeon";
    }
    std::string out;
    for (const ServerClass& cls : classes) {
        if (!out.empty()) {
            out += '+';
        }
        out += std::to_string(cls.count) + cls.name;
    }
    return out;
}

Cluster::Cluster(const ClusterConfig& config) : config_(config)
{
    if (config.classes.empty()) {
        servers_.reserve(config.num_servers);
        for (uint32_t i = 0; i < config.num_servers; ++i) {
            servers_.emplace_back(i, config.map_slots_per_server,
                                  config.reduce_slots_per_server,
                                  config.speed, config.power);
        }
        return;
    }
    uint32_t id = 0;
    for (const ServerClass& cls : config.classes) {
        for (uint32_t i = 0; i < cls.count; ++i) {
            servers_.emplace_back(id++, cls.map_slots, cls.reduce_slots,
                                  cls.speed, cls.power);
        }
    }
}

uint32_t
Cluster::addServers(uint32_t count, const ServerClass& cls)
{
    uint32_t first = numServers();
    for (uint32_t i = 0; i < count; ++i) {
        // joined_at = now: the joiner's energy meter starts at the join
        // instant, so it is charged nothing for the pre-join epoch.
        servers_.emplace_back(first + i, cls.map_slots, cls.reduce_slots,
                              cls.speed, cls.power, now());
    }
    return first;
}

int
Cluster::totalMapSlots() const
{
    int total = 0;
    for (const Server& s : servers_) {
        if (s.departed() || s.state() == ServerState::kDraining) {
            continue;  // no new work lands on a leaving/left server
        }
        total += s.mapSlots();
    }
    return total;
}

int
Cluster::totalReduceSlots() const
{
    int total = 0;
    for (const Server& s : servers_) {
        if (s.departed() || s.state() == ServerState::kDraining) {
            continue;
        }
        total += s.reduceSlots();
    }
    return total;
}

void
Cluster::accrueAll()
{
    for (Server& s : servers_) {
        s.accrue(now());
    }
}

double
Cluster::energyWattHours()
{
    accrueAll();
    double joules = 0.0;
    for (const Server& s : servers_) {
        joules += s.energyJoules();
    }
    return joules / 3600.0;
}

}  // namespace approxhadoop::sim
