"""Unit tests for the placement engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import PlacementEngine, PlacementError
from repro.datacenter import Cluster, Datastore, Host, HostState, VirtualMachine
from repro.datacenter.vm import PowerState


@pytest.fixture
def cluster():
    cluster = Cluster(entity_id="cluster-1", name="gold")
    shared = Datastore(entity_id="ds-1", name="lun0", capacity_gb=1000.0)
    for index in range(3):
        host = Host(entity_id=f"host-{index}", name=f"esx{index:02d}")
        cluster.add_host(host)
        host.mount(shared)
    return cluster


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        PlacementEngine(policy="best-fit-ish")


def test_least_loaded_prefers_empty_host(cluster):
    engine = PlacementEngine(policy="least_loaded")
    vm = VirtualMachine(entity_id="vm-1", name="busy")
    vm.place_on(cluster.hosts[0])
    chosen = engine.choose_host(cluster)
    assert chosen is not cluster.hosts[0]


def test_round_robin_cycles(cluster):
    engine = PlacementEngine(policy="round_robin")
    picks = [engine.choose_host(cluster) for _ in range(6)]
    assert picks[:3] == cluster.hosts
    assert picks[3:] == cluster.hosts


def test_random_policy_deterministic_with_seed(cluster):
    a = PlacementEngine(policy="random", rng=random.Random(5))
    b = PlacementEngine(policy="random", rng=random.Random(5))
    assert [a.choose_host(cluster).name for _ in range(5)] == [
        b.choose_host(cluster).name for _ in range(5)
    ]


def test_no_usable_hosts_raises(cluster):
    for host in cluster.hosts:
        host.state = HostState.MAINTENANCE
    with pytest.raises(PlacementError, match="no usable hosts"):
        PlacementEngine().choose_host(cluster)


def test_datastore_needs_free_space(cluster):
    engine = PlacementEngine()
    datastore = next(iter(cluster.shared_datastores()))
    datastore.allocate(995.0)
    with pytest.raises(PlacementError, match="GB free"):
        engine.choose_datastore(cluster, required_gb=50.0)


def test_datastore_least_loaded_prefers_most_free(cluster):
    extra = Datastore(entity_id="ds-2", name="lun1", capacity_gb=1000.0)
    for host in cluster.hosts:
        host.mount(extra)
    first = next(ds for ds in cluster.shared_datastores() if ds.entity_id == "ds-1")
    first.allocate(500.0)
    chosen = PlacementEngine().choose_datastore(cluster, required_gb=10.0)
    assert chosen is extra


def test_non_shared_datastore_excluded(cluster):
    private = Datastore(entity_id="ds-2", name="local", capacity_gb=1000.0)
    cluster.hosts[0].mount(private)
    chosen = PlacementEngine().choose_datastore(cluster, required_gb=10.0)
    assert chosen.entity_id == "ds-1"


def test_choose_returns_pair(cluster):
    host, datastore = PlacementEngine().choose(cluster, required_gb=1.0)
    assert host in cluster.hosts
    assert datastore in cluster.shared_datastores()


def test_exclude_datastores_redirects(cluster):
    smaller = Datastore(entity_id="ds-2", name="lun1", capacity_gb=500.0)
    for host in cluster.hosts:
        host.mount(smaller)
    engine = PlacementEngine(policy="least_loaded")
    # ds-1 is most-free and would win every round; excluding it redirects.
    assert engine.choose_datastore(cluster, 10.0).entity_id == "ds-1"
    chosen = engine.choose_datastore(cluster, 10.0, exclude_datastores={"ds-1"})
    assert chosen.entity_id == "ds-2"


def test_datastore_exclusion_is_soft(cluster):
    # Unlike host exclusion, excluding every datastore falls back to the
    # excluded candidates rather than failing placement outright.
    chosen = PlacementEngine().choose_datastore(
        cluster, 10.0, exclude_datastores={"ds-1"}
    )
    assert chosen.entity_id == "ds-1"


# -- least_loaded first fit vs filter-then-min ---------------------------------


def _reference_host(cluster, memory_gb, exclude_hosts):
    """Filter every candidate through admission, then take the min."""
    candidates = [
        host for host in cluster.usable_hosts if host.entity_id not in exclude_hosts
    ]
    if not candidates:
        raise PlacementError(f"cluster {cluster.name!r} has no usable hosts")
    if memory_gb > 0.0:
        candidates = [host for host in candidates if host.can_admit(memory_gb)]
        if not candidates:
            raise PlacementError(
                f"no host in {cluster.name!r} can admit {memory_gb:.0f} GB"
            )
    return min(candidates, key=lambda host: (len(host.vms), host.entity_id))


def _reference_datastore(cluster, required_gb, exclude_datastores):
    shared = sorted(cluster.shared_datastores(), key=lambda ds: ds.entity_id)
    candidates = [ds for ds in shared if ds.free_gb >= required_gb]
    filtered = [ds for ds in candidates if ds.entity_id not in exclude_datastores]
    candidates = filtered or candidates
    if not candidates:
        raise PlacementError(
            f"no shared datastore in {cluster.name!r} with {required_gb:.1f} GB free"
        )
    return max(candidates, key=lambda ds: (ds.free_gb, ds.entity_id))


_vm = st.tuples(
    st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0]),
    st.sampled_from(list(PowerState)),
)
_host = st.tuples(
    st.sampled_from(list(HostState)),
    st.sampled_from([8.0, 16.0, 32.0]),
    st.lists(_vm, max_size=6),
)


def _outcome(choose, *args):
    try:
        return choose(*args).entity_id
    except PlacementError as error:
        return f"PlacementError: {error}"


@settings(max_examples=300, deadline=None)
@given(
    hosts=st.lists(_host, min_size=1, max_size=12),
    memory_gb=st.sampled_from([0.0, 1.0, 4.0, 12.0, 30.0, 64.0]),
    excluded=st.sets(st.integers(min_value=0, max_value=11), max_size=4),
)
def test_least_loaded_first_fit_matches_filter_then_min(hosts, memory_gb, excluded):
    cluster = Cluster(entity_id="cluster-1", name="gold")
    vm_ids = iter(range(10_000))
    for index, (state, memory, vms) in enumerate(hosts):
        host = Host(
            entity_id=f"host-{index}", name=f"esx{index:02d}",
            memory_gb=memory, state=state,
        )
        cluster.add_host(host)
        for vm_memory, power_state in vms:
            number = next(vm_ids)
            vm = VirtualMachine(
                entity_id=f"vm-{number}", name=f"vm{number}",
                memory_gb=vm_memory, power_state=power_state,
            )
            vm.place_on(host)
    exclude_hosts = {f"host-{index}" for index in excluded}
    engine = PlacementEngine(policy="least_loaded")
    assert _outcome(engine.choose_host, cluster, memory_gb, exclude_hosts) == (
        _outcome(_reference_host, cluster, memory_gb, exclude_hosts)
    )


def test_first_fit_reports_both_placement_errors(cluster):
    engine = PlacementEngine(policy="least_loaded")
    everyone = {host.entity_id for host in cluster.hosts}
    with pytest.raises(PlacementError, match="has no usable hosts"):
        engine.choose_host(cluster, memory_gb=4.0, exclude_hosts=everyone)
    with pytest.raises(PlacementError, match="can admit 1000 GB"):
        engine.choose_host(cluster, memory_gb=1000.0)


@settings(max_examples=200, deadline=None)
@given(
    used=st.lists(st.sampled_from([0.0, 100.0, 500.0, 990.0]), min_size=1, max_size=8),
    required_gb=st.sampled_from([1.0, 50.0, 600.0]),
    excluded=st.sets(st.integers(min_value=0, max_value=7), max_size=3),
)
def test_least_loaded_datastore_matches_sorted_max(used, required_gb, excluded):
    cluster = Cluster(entity_id="cluster-1", name="gold")
    hosts = [Host(entity_id=f"host-{index}", name=f"esx{index}") for index in range(3)]
    for host in hosts:
        cluster.add_host(host)
    for index, used_gb in enumerate(used):
        datastore = Datastore(
            entity_id=f"ds-{index}", name=f"lun{index}", capacity_gb=1000.0,
            used_gb=used_gb,
        )
        for host in hosts:
            host.mount(datastore)
    exclude = {f"ds-{index}" for index in excluded}
    engine = PlacementEngine(policy="least_loaded")
    assert _outcome(engine.choose_datastore, cluster, required_gb, exclude) == (
        _outcome(_reference_datastore, cluster, required_gb, exclude)
    )
