(** A minimal ELF-like container format for images ("XELF").

    The offline patching tool of Section 4.4 operates on binaries {i at
    rest}: read the executable, rewrite its syscall sites, write it back.
    This format gives the reproduction that pipeline: an {!Image.t}
    serialises to a self-describing byte blob (magic, header, code bytes,
    symbol table, page flags) and loads back bit-identically — so tests
    can prove that patch-save-load-run equals patch-run.  The file-level
    pipeline itself (load, patch with {!Xc_abom}, save) lives one layer
    up, in the CLI and tests, to keep this library below the patcher. *)

val serialize : Image.t -> bytes

val deserialize : bytes -> (Image.t, string) result
(** Rejects bad magic, truncated blobs and inconsistent section sizes. *)

val save : Image.t -> path:string -> unit
(** Write to a file (the CLI and examples use this). *)

val load : path:string -> (Image.t, string) result
