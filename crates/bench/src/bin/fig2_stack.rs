//! Fig 2: the "cloud native" network stack, printed from the live crate
//! graph — each layer of the figure corresponds to a concrete module of
//! this workspace, which is the point of the reproduction.

fn main() {
    println!("# Fig 2: a modern \"cloud native\" network stack");
    println!("# (paper layer -> meshlayer implementation)");
    let rows: &[(&str, &str, &str)] = &[
        (
            "Application",
            "meshlayer-cluster::behavior + meshlayer-apps",
            "service behaviour graphs: bookinfo/e-library, e-commerce",
        ),
        (
            "Service Mesh",
            "meshlayer-mesh (+ meshlayer-core provenance/xlayer)",
            "sidecars: LB, retries, breakers, tracing, priority propagation",
        ),
        (
            "Transport",
            "meshlayer-transport",
            "reliable message streams; Reno/CUBIC + LEDBAT/TCP-LP scavengers",
        ),
        (
            "Virtualization",
            "meshlayer-core::netplan + cluster pod IPs",
            "virtual pod network, per-pod virtual NICs (TC attachment point)",
        ),
        (
            "Network",
            "meshlayer-netsim::topology + tc",
            "routing, classifiers, DSCP priority queues",
        ),
        (
            "Link",
            "meshlayer-netsim::link + qdisc",
            "serialization, propagation, DropTail/PRIO/HTB",
        ),
        (
            "Physical",
            "meshlayer-simcore",
            "the event-driven substrate everything runs on",
        ),
    ];
    for (layer, krate, what) in rows {
        println!("{layer:<14} | {krate:<52} | {what}");
    }
}
