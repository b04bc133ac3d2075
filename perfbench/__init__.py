"""Layer-attributed host/simulated benchmark of the PacketMill simulator."""
