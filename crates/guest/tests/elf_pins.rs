//! Pinned ELF images: the length and a 128-bit digest of the executable
//! `mac-bench guest assemble` writes for every shipped program.
//!
//! Guests run from the assembled object, so nothing in the pipeline
//! reads these bytes back; this pins them instead. Any change to the
//! assembler's output or to the writer's layout fails here. The pins
//! were computed before the object assembler moved into `rv64-sim` and
//! the ELF loader was retired, and hold since. CI's `guest-smoke` job
//! also reads each file with GNU `readelf`.

use mac_guest::{shipped_programs, write_elf};
use mac_types::Fnv128;

#[test]
fn elf_images_match_their_pins() {
    let pins = [
        ("guest_stream", 8800, "ff453d4ad5ca8c15b6bbb1a4865042ae"),
        ("guest_gups", 8768, "475408c40354845f10711a53019d2ecc"),
        ("guest_ptrchase", 8736, "ac88d427d0d967c3f04c3eefc7abcf38"),
        ("guest_sg", 8768, "c6670a70b8ff73ea865d03a4c83af367"),
    ];
    let names: Vec<_> = shipped_programs().iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        pins.map(|(n, ..)| n),
        "every shipped program is pinned"
    );
    for (spec, (name, len, want)) in shipped_programs().iter().zip(pins) {
        let elf = write_elf(&spec.object().expect(name));
        let mut h = Fnv128::new();
        h.write_bytes(&elf);
        assert_eq!((elf.len(), h.hex()), (len, want.to_string()), "{name}");
    }
}
